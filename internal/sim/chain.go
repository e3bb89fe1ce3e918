package sim

// Off-queue chains.
//
// Some chains of steps change nothing another event reads until one of a
// known set of events runs. A processor spinning on a word it caches is
// the case in point: each poll hits, fails its predicate, backs off and
// polls again, and only an event of the processor's own node — a
// delivery, a trap, a controller step — can change the word or claim the
// pipeline. The owner of such a chain may take it off the queue
// (TakeOff). The engine then queues none of its steps; they are settled
// later, in order and each with the clock at its own deadline, through
// the owner's StepChain and SkipChain:
//
//   - At a wake point. Every event that can read or change what the chain
//     touches first calls its owner's wake, which settles the steps due
//     before that event and returns the chain to the queue (Rejoin). The
//     chain's next step is queued there under a fresh key, and the owner
//     must make sure that key sorts where the step's own key would have:
//     no event it must follow or precede can have drawn a key in between.
//   - When RunUntil returns, through the effective run limit, after Abort
//     too, so a run cut by a limit, a watchdog or an abort stops on the
//     cycle it would have stopped on with every step queued. A run with no
//     limit settles nothing: a chain still off the queue when the queue
//     drains can never be woken, and RunUntil(Forever) returns with it
//     still off (the machine reports that as a deadlock).
//
// Settled steps count as executed events in Processed and in Inlined,
// and an off-queue chain counts as one pending event, at its next step's
// deadline, in Pending and NextEventTime. So the counts a run reports are
// those of the same run with every step queued.

// Chain is the engine's handle on one owner's chain of steps. The owner
// embeds it and takes the chain off the queue with TakeOff; while the
// chain is on the queue, the handle is idle.
type Chain struct {
	owner ChainOwner
	at    Time // deadline of the chain's next step while off the queue
	pos   int  // 1 + index in Engine.chains; 0 while on the queue
}

// ChainOwner runs an off-queue chain's steps as the engine settles them.
type ChainOwner interface {
	// StepChain runs the chain's next step, with the engine clock at its
	// deadline, and returns the deadline of the step after it.
	StepChain() Time
	// SkipChain settles in closed form a run of the chain's steps, starting
	// with the next one (due at at) and all due at or before limit. It
	// returns how many it settled — 0 when it cannot, and StepChain then
	// runs the next step — and the deadlines of the last of them and of
	// the step after it. It must leave the owner exactly as running those
	// steps one by one would.
	SkipChain(at, limit Time) (n uint64, last, next Time)
}

// Off reports whether the chain is off the queue.
func (c *Chain) Off() bool { return c.pos > 0 }

// TakeOff takes owner's chain c off the queue with its next step due at
// cycle at: the engine queues none of its steps until Rejoin, and settles
// them through owner as described above.
func (e *Engine) TakeOff(c *Chain, owner ChainOwner, at Time) {
	switch {
	case c.pos > 0:
		panic("sim: TakeOff on a chain already off the queue")
	case at < e.now:
		panic("sim: off-queue chain step before now")
	}
	c.owner, c.at = owner, at
	e.chains = append(e.chains, c)
	c.pos = len(e.chains)
}

// Rejoin settles c's steps due at or before limit and returns c to the
// queue. It returns the deadline of the chain's next step, which the owner
// must queue right away, so the step's key is drawn at this point.
func (e *Engine) Rejoin(c *Chain, limit Time) Time {
	if c.pos == 0 {
		panic("sim: Rejoin on a chain on the queue")
	}
	e.settle(c, limit)
	i, last := c.pos-1, len(e.chains)-1
	if i != last {
		e.chains[i] = e.chains[last]
		e.chains[i].pos = i + 1
	}
	e.chains[last] = nil
	e.chains = e.chains[:last]
	c.pos = 0
	return c.at
}

// settle runs c's steps due at or before limit, each with the clock at its
// deadline (a closed-form run with the clock at its last), and counts
// them. The clock then returns to the later of its value before and the
// last step's deadline: a wake settles steps before the event it
// precedes, while the settle at the end of a run moves the clock to its
// last executed step.
func (e *Engine) settle(c *Chain, limit Time) {
	now := e.now
	for c.at <= limit {
		n, last, next := c.owner.SkipChain(c.at, limit)
		if n == 0 {
			e.now = c.at
			n, next = 1, c.owner.StepChain()
		} else {
			e.now = last
		}
		e.processed += n
		e.inlined += n
		c.at = next
	}
	if e.now < now {
		e.now = now
	}
}

// settleChains settles every off-queue chain through the effective limit
// of the run that is returning. An unlimited run settles nothing.
func (e *Engine) settleChains() {
	if e.runLimit == Forever {
		return
	}
	for _, c := range e.chains {
		e.settle(c, e.runLimit)
	}
}
