// Package proc models the SPARCLE processor of the Alewife machine: an
// in-order processor with a small number of hardware contexts (register
// frames), an 11-cycle context switch taken only on memory requests that
// must cross the interconnection network, and a finely-tuned trap
// architecture that starts a trap handler within 5–10 cycles (Sections 2
// and 4.1 of the paper). The processor is also the engine that runs the
// LimitLESS software handlers: when the memory controller raises a
// protocol interrupt, the processor claims its own pipeline for
// TrapEntry + TrapService cycles and then executes the handler on the
// packet at the head of the IPI input queue.
package proc

import (
	"fmt"

	"limitless/internal/coherence"
	"limitless/internal/directory"
	"limitless/internal/fault"
	"limitless/internal/ipi"
	"limitless/internal/sim"
)

// Kind is an instruction class in a workload stream.
type Kind uint8

const (
	// OpLoad reads a shared-memory word.
	OpLoad Kind = iota
	// OpStore writes a shared-memory word.
	OpStore
	// OpCompute spends Cycles of local execution without memory traffic.
	OpCompute
	// OpRMW performs an atomic read-modify-write: Modify(old) is stored
	// and the workload's Next receives the old value. This models the
	// fetch-and-op operations that the paper's combining-tree barriers
	// and lock workloads are built from.
	OpRMW
)

func (k Kind) String() string {
	switch k {
	case OpLoad:
		return "load"
	case OpStore:
		return "store"
	case OpCompute:
		return "compute"
	case OpRMW:
		return "rmw"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Op is one workload instruction.
type Op struct {
	Kind   Kind
	Addr   directory.Addr
	Value  uint64                  // store value
	Cycles sim.Time                // compute duration; spin backoff for an OpLoad with Until
	Shared bool                    // shared datum (private-only baseline refuses to cache)
	Modify func(old uint64) uint64 // OpRMW transform
	// Until turns an OpLoad into a spin-wait. The processor polls Addr
	// until Until(value) holds, burning Cycles (at least 1) of compute
	// between polls, and only then calls Next with the satisfying value.
	// Every poll and backoff is an ordinary instruction — same pipeline
	// claims, cache accesses, sequence keys and Stats counts as plain loads
	// and computes returned from Next one at a time — so the result is the
	// same as that loop's; only the host-side Next calls are saved. Until
	// must be nil on every other Kind (the processor panics).
	Until func(v uint64) bool
}

// Workload is one thread of execution bound to a processor context. Next
// is called with the value produced by the previous operation (the loaded
// word for OpLoad, the stored value for OpStore, 0 for OpCompute), which
// lets workloads express data-dependent control flow — spin loops,
// combining trees, lock retries — without any extra machinery. A spin
// loop is best returned as one OpLoad carrying Until, which the processor
// runs without calling Next per poll.
type Workload interface {
	Next(prev uint64) (Op, bool)
}

// WorkloadFunc adapts a function to the Workload interface.
type WorkloadFunc func(prev uint64) (Op, bool)

// Next implements Workload.
func (f WorkloadFunc) Next(prev uint64) (Op, bool) { return f(prev) }

// Handler runs a trapped protocol packet; swdir's handlers implement it.
type Handler interface {
	Handle(p *ipi.Packet)
}

// Mode selects how the processor advances through instruction chains.
type Mode uint8

const (
	// ModeFused (the default) parks each pipeline continuation — cache
	// hits, issue cycles, compute slices, context switches — as an engine
	// pend: a direct-dispatch slot co-scheduled with the event queue in
	// exact (deadline, sequence) order but never allocated, bucketed, or
	// pooled as an event. Chains of pipeline work below the next event
	// cycle run back-to-back through the engine's fuse loop, and a
	// continuation that lands among same-cycle events dispatches at
	// precisely the queue position its event twin would have occupied, so
	// fused runs are bit-identical to the event path.
	ModeFused Mode = iota
	// ModeEvent schedules one engine event per pipeline step — the
	// original event-per-instruction path, kept as a cross-checked oracle.
	// It never changes results.
	ModeEvent
)

// Stats counts processor activity.
type Stats struct {
	Instructions    uint64
	Loads           uint64
	Stores          uint64
	ContextSwitches uint64
	TrapsServiced   uint64
	TrapCycles      sim.Time
	BusyCycles      sim.Time
	// Stalls counts memory references the processor stalled on
	// (hits, local misses, and remote misses with no other context ready).
	Stalls uint64
	// FaultTraps counts trap executions lengthened by an injected
	// handler-time slowdown.
	FaultTraps uint64
}

type ctxState uint8

const (
	ctxReady ctxState = iota
	ctxBlocked
	ctxFinished
)

type context struct {
	wl    Workload
	state ctxState
	prev  uint64

	// Closure-free scheduling scratch. A context has at most one pending
	// pipeline continuation (compute slice, issue, hit completion, or
	// switch-in), so one set of fields per context suffices.
	computeLeft sim.Time       // cycles of the current compute op still to burn
	pendingOp   Op             // memory op parked across the one-cycle issue slot
	hitVal      uint64         // committed value parked across the CacheHit latency
	done        func(v uint64) // per-context completion callback, allocated once
	spin        spinPhase      // spin-wait progress; pendingOp holds the spin load meanwhile
}

// spinPhase tracks a context through the poll loop of an OpLoad with Until.
type spinPhase uint8

const (
	spinNone    spinPhase = iota
	spinPolled            // the spin load was issued; the next step tests its value
	spinBackoff           // the backoff was issued; the next step re-polls
)

// Processor is one node's SPARCLE. It owns the node's execution: workload
// instructions, context switches, and LimitLESS trap service all serialize
// through a single pipeline resource, so trap time directly displaces
// application time — the effect behind the paper's T_s sensitivity study.
type Processor struct {
	eng    *sim.Engine
	cc     *coherence.CacheController
	mc     *coherence.MemoryController
	hnd    Handler
	timing coherence.Timing

	pipe     sim.Resource
	faults   *fault.Plan
	contexts []*context
	cur      int
	mode     Mode
	running  bool // an instruction chain is active
	finished int
	stats    Stats
	onIdle   func() // invoked when all contexts finish

	// The parked pipeline continuation (fused mode). Every pipeline step
	// ends by handing exactly one continuation to sched, which parks it on
	// the engine as simPend; the engine dispatches it in (deadline,
	// sequence) order alongside the event queue. At most one continuation
	// is ever outstanding — a chain is a chain — so a single slot
	// suffices, and sched panics if it finds the slot occupied.
	pend    pendAction
	simPend *sim.Pend

	// Pre-allocated sim.Handler adapters: one per event kind, so the hot
	// loop schedules through AtHandler without allocating closures.
	stepH     stepHandler
	issueH    issueHandler
	computeH  computeHandler
	completeH completeHandler
	trapH     trapHandler
}

// pendKind names the four pipeline continuations a step can end with.
type pendKind uint8

const (
	pendNone     pendKind = iota
	pendStep              // run the context's next instruction (switch-in, post-compute)
	pendIssue             // hand the parked memory op to the cache controller
	pendCompute           // burn the next compute slice (or step if none left)
	pendComplete          // commit the parked hit value after CacheHit cycles
)

// pendAction is one parked continuation: what to do and for whom (the
// deadline lives on the engine-side pend).
type pendAction struct {
	kind pendKind
	ctx  *context
}

// The event-mode handlers run one pipeline step per event.
type stepHandler struct{ p *Processor }

func (h *stepHandler) OnEvent(arg any) {
	h.p.step(arg.(*context))
}

type issueHandler struct{ p *Processor }

func (h *issueHandler) OnEvent(arg any) {
	c := arg.(*context)
	h.p.issue(c, c.pendingOp)
}

type computeHandler struct{ p *Processor }

func (h *computeHandler) OnEvent(arg any) {
	c := arg.(*context)
	if c.computeLeft > 0 {
		h.p.compute(c, c.computeLeft)
	} else {
		h.p.step(c)
	}
}

type completeHandler struct{ p *Processor }

func (h *completeHandler) OnEvent(arg any) {
	c := arg.(*context)
	c.done(c.hitVal)
}

type trapHandler struct{ p *Processor }

func (h *trapHandler) OnEvent(any) {
	p := h.p
	pkt := p.mc.IPIQueue().Pop()
	if pkt == nil {
		panic("proc: protocol trap with empty IPI queue")
	}
	p.hnd.Handle(pkt)
}

// New creates a processor with the given hardware contexts (SPARCLE caches
// four register frames; pass 1 for a blocking processor).
func New(eng *sim.Engine, cc *coherence.CacheController, timing coherence.Timing, nContexts int) *Processor {
	if nContexts < 1 {
		panic("proc: need at least one context")
	}
	p := &Processor{eng: eng, cc: cc, timing: timing}
	p.stepH = stepHandler{p}
	p.issueH = issueHandler{p}
	p.computeH = computeHandler{p}
	p.completeH = completeHandler{p}
	p.trapH = trapHandler{p}
	p.simPend = sim.NewPend(p.runPend)
	p.contexts = make([]*context, nContexts)
	for i := range p.contexts {
		c := &context{state: ctxFinished}
		c.done = func(v uint64) {
			c.prev = v
			c.state = ctxReady
			if !p.running {
				p.dispatch()
			}
		}
		p.contexts[i] = c
	}
	p.finished = nContexts
	return p
}

// Attach wires the processor to its node's memory controller and trap
// handler. Called once by the machine builder (the controller needs the
// processor as its trap sink, so construction is two-phase).
func (p *Processor) Attach(mc *coherence.MemoryController, hnd Handler) {
	p.mc = mc
	p.hnd = hnd
}

// Stats returns a copy of the processor counters.
func (p *Processor) Stats() Stats { return p.stats }

// SetMode selects fused or event-per-instruction execution. Call before
// Start; the two modes produce bit-identical results.
func (p *Processor) SetMode(m Mode) { p.mode = m }

// SetFaultPlan installs a fault plan whose TrapSlowdown lengthens
// individual trap-handler executions (modeling handler-time perturbation —
// TLB misses, instruction-cache cold starts — in the software path).
func (p *Processor) SetFaultPlan(f *fault.Plan) { p.faults = f }

// Done reports whether every context has run its workload to completion.
func (p *Processor) Done() bool { return p.finished == len(p.contexts) }

// SetWorkload binds a workload to hardware context slot. It resets the
// slot's completion state; call before Start.
func (p *Processor) SetWorkload(slot int, wl Workload) {
	c := p.contexts[slot]
	if c.state != ctxFinished {
		panic("proc: SetWorkload on a live context")
	}
	c.wl = wl
	c.state = ctxReady
	c.prev = 0
	p.finished--
}

// OnIdle registers a callback invoked when the last context finishes.
func (p *Processor) OnIdle(fn func()) { p.onIdle = fn }

// Start begins execution at the current simulation time.
func (p *Processor) Start() {
	if p.running {
		panic("proc: Start on a running processor")
	}
	p.dispatch()
}

// sched parks the chain's one continuation. In event mode it schedules the
// corresponding engine event immediately — byte-for-byte the event chain
// this processor always ran. In fused mode it parks the engine pend
// instead: same deadline, same sequence key, direct dispatch.
func (p *Processor) sched(t sim.Time, k pendKind, c *context) {
	if p.mode == ModeFused {
		if p.pend.kind != pendNone {
			panic("proc: pipeline continuation already parked")
		}
		p.pend = pendAction{kind: k, ctx: c}
		p.eng.Park(p.simPend, t)
		return
	}
	p.schedule(t, k, c)
}

// runPend is the engine-side pend dispatch: it pops the parked continuation
// and executes it, exactly as the corresponding event handler would.
func (p *Processor) runPend() {
	a := p.pend
	p.pend.kind = pendNone
	p.exec(a.kind, a.ctx)
}

// schedule converts a continuation into its engine event. The deadlines
// and handler identities match the pre-fusion event chain exactly, and a
// fused run parks its fallback event at the same cycle the event mode
// would have allocated it (the time of the chain's previous action), so
// the two modes assign identical sequence keys.
func (p *Processor) schedule(t sim.Time, k pendKind, c *context) {
	switch k {
	case pendStep:
		p.eng.AtHandler(t, &p.stepH, c)
	case pendIssue:
		p.eng.AtHandler(t, &p.issueH, c)
	case pendCompute:
		p.eng.AtHandler(t, &p.computeH, c)
	case pendComplete:
		p.eng.AtHandler(t, &p.completeH, c)
	default:
		panic("proc: scheduling an empty continuation")
	}
}

// exec performs one continuation — the same dispatch the event-mode
// handlers perform when the corresponding event fires.
func (p *Processor) exec(k pendKind, c *context) {
	switch k {
	case pendStep:
		p.step(c)
	case pendIssue:
		p.issue(c, c.pendingOp)
	case pendCompute:
		if c.computeLeft > 0 {
			p.compute(c, c.computeLeft)
		} else {
			p.step(c)
		}
	case pendComplete:
		c.done(c.hitVal)
	}
}

// ProtocolTrap implements coherence.TrapSink: the controller has pushed a
// protocol packet onto the IPI input queue. The trap is synchronous — it
// claims the pipeline as soon as the current instruction completes — and
// costs TrapEntry to reach the handler plus TrapService (T_s) to run it.
func (p *Processor) ProtocolTrap() {
	if p.mc == nil || p.hnd == nil {
		panic("proc: protocol trap before Attach")
	}
	cost := p.timing.TrapEntry + p.timing.TrapService
	if p.faults != nil {
		if d := p.faults.TrapSlowdown(p.eng.Now(), int(p.cc.ID())); d > 0 {
			cost += d
			p.stats.FaultTraps++
		}
	}
	start := p.pipe.Claim(p.eng.Now(), cost)
	p.stats.TrapsServiced++
	p.stats.TrapCycles += cost
	p.stats.BusyCycles += cost
	p.eng.AtHandler(start+cost, &p.trapH, nil)
}

// dispatch picks the next ready context and runs it. With no ready context
// the processor idles; a completion callback re-dispatches.
func (p *Processor) dispatch() {
	p.running = false
	if p.Done() {
		if p.onIdle != nil {
			fn := p.onIdle
			p.onIdle = nil
			fn()
		}
		return
	}
	// Prefer the current context (no switch cost), then round-robin.
	n := len(p.contexts)
	for off := 0; off < n; off++ {
		idx := (p.cur + off) % n
		if p.contexts[idx].state != ctxReady {
			continue
		}
		p.running = true
		if idx != p.cur && n > 1 {
			p.stats.ContextSwitches++
			p.cur = idx
			start := p.pipe.Claim(p.eng.Now(), p.timing.ContextSwitch)
			p.stats.BusyCycles += p.timing.ContextSwitch
			p.sched(start+p.timing.ContextSwitch, pendStep, p.contexts[idx])
			return
		}
		p.cur = idx
		p.step(p.contexts[idx])
		return
	}
	// Nothing ready: idle until a memory completion re-dispatches.
}

// step executes one instruction of ctx. A context in a spin-wait runs the
// poll loop here without calling Next: an unsatisfied poll is followed by
// its backoff and then by the same load again, and a satisfied one falls
// through to Next with the satisfying value.
func (p *Processor) step(c *context) {
	var op Op
	switch {
	case c.spin == spinPolled && !c.pendingOp.Until(c.prev):
		c.spin = spinBackoff
		op = Op{Kind: OpCompute, Cycles: c.pendingOp.Cycles}
	case c.spin == spinBackoff:
		c.spin = spinPolled
		op = c.pendingOp
	default:
		c.spin = spinNone
		var ok bool
		op, ok = c.wl.Next(c.prev)
		if !ok {
			c.state = ctxFinished
			p.finished++
			p.dispatch()
			return
		}
		if op.Until != nil {
			if op.Kind != OpLoad {
				panic(fmt.Sprintf("proc: Until on a %v op", op.Kind))
			}
			c.spin = spinPolled
		}
	}
	p.stats.Instructions++

	switch op.Kind {
	case OpCompute:
		if op.Cycles < 1 {
			op.Cycles = 1
		}
		c.prev = 0
		p.compute(c, op.Cycles)

	case OpLoad, OpStore, OpRMW:
		if op.Kind == OpLoad {
			p.stats.Loads++
		} else {
			p.stats.Stores++
		}
		// Issue occupies the pipeline for one cycle; the reference itself
		// proceeds in the cache controller.
		start := p.pipe.Claim(p.eng.Now(), 1)
		p.stats.BusyCycles++
		c.state = ctxBlocked
		c.pendingOp = op
		p.sched(start+1, pendIssue, c)

	default:
		panic(fmt.Sprintf("proc: unknown op kind %v", op.Kind))
	}
}

// computeSlice bounds a single pipeline claim for local work. Compute
// operations stand for runs of ordinary instructions, so a synchronous
// trap (or another context) must be able to interleave at instruction
// granularity — a 1000-cycle compute must not make the IPI handler wait
// 1000 cycles (Section 4.2: IPI input traps are synchronous).
const computeSlice = sim.Time(16)

// compute burns cycles of local work in preemptible slices.
func (p *Processor) compute(c *context, remaining sim.Time) {
	slice := remaining
	if slice > computeSlice {
		slice = computeSlice
	}
	start := p.pipe.Claim(p.eng.Now(), slice)
	p.stats.BusyCycles += slice
	c.computeLeft = remaining - slice
	p.sched(start+slice, pendCompute, c)
}

// issue hands a memory reference to the cache controller and decides
// whether to stall or context-switch.
func (p *Processor) issue(c *context, op Op) {
	req := coherence.Request{
		Addr:   op.Addr,
		Value:  op.Value,
		Shared: op.Shared,
		Done:   c.done,
	}
	switch op.Kind {
	case OpStore:
		req.Op = coherence.Store
	case OpRMW:
		if op.Modify == nil {
			panic("proc: OpRMW without Modify")
		}
		req.Op = coherence.Store
		req.Modify = op.Modify
	}
	outcome, v := p.cc.AccessSync(req)

	if outcome == coherence.OutcomeHit {
		// The reference commits CacheHit cycles from now. Routing the
		// completion through the processor's own continuation machinery —
		// rather than the controller's pooled completion events — keeps the
		// hot path on the fused run while the event oracle allocates its
		// completion at the identical cycle with an identical sequence key.
		c.hitVal = v
		p.sched(p.eng.Now()+p.timing.CacheHit, pendComplete, c)
	} else if outcome == coherence.OutcomeMissRemote && len(p.contexts) > 1 {
		// "The Alewife processors rapidly schedule another process in
		// place of the stalled process" — switch if anyone is ready.
		p.dispatch()
		return
	}
	// Hits, local misses, and remote misses with nothing else to run
	// stall the processor (Section 2: context switches are forced only on
	// remote requests).
	p.stats.Stalls++
	p.running = false
}
