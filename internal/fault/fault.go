// Package fault provides seeded, fully deterministic fault injection for
// the simulated machine: transient node stalls, bounded per-packet delay
// jitter, duplicated deliveries of protocol messages, trap-handler
// slowdowns, and — the genuine failure classes — in-flight packet loss and
// checksum corruption. A Plan is a pure function family over (seed,
// simulated time, endpoints, sequence number): every decision is a
// stateless hash of the event's own coordinates, so the same seed
// reproduces the identical fault schedule across reruns — faults perturb
// the protocol, never the determinism.
//
// The latency classes (delay, dup, stall, trap) only ever *add* latency.
// The loss classes (drop, corrupt) destroy packets outright; the mesh's
// reliable transport (per-link sequence numbers, checksums, timeout-driven
// retransmission with exponential backoff) recovers them, so every workload
// stays completable and recovery only ever adds latency too:
// mesh.Config.MinPacketLatency remains a valid lower bound on delivery
// latency with any plan installed, because a retransmission is just a
// later injection.
package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"limitless/internal/sim"
)

// Config is the fault model: a seed plus per-fault-class rates and
// magnitudes. The zero value (and any config whose rates are all zero)
// disables injection entirely; Plan construction then returns nil so wired
// components skip the hooks and runs stay bit-identical to a build without
// the fault subsystem.
type Config struct {
	// Seed selects the deterministic fault schedule. Two runs with the same
	// seed and rates see the identical schedule.
	Seed uint64

	// DelayRate is the fraction of non-local packets ([0,1]) that receive
	// extra delivery delay; DelayMax bounds the delay (cycles, exclusive).
	DelayRate float64
	DelayMax  sim.Time

	// DupRate is the fraction of delivered protocol messages that are
	// delivered a second time (marked Dup; receivers must suppress).
	// DupDelay bounds the extra delay of the duplicate (cycles, exclusive;
	// the duplicate always arrives at least one cycle after the original).
	DupRate  float64
	DupDelay sim.Time

	// StallRate is the per-(node, epoch) probability that the node's
	// network ingress stalls for StallCycles at the start of the epoch;
	// StallPeriod is the epoch length. Packets destined to a stalled node
	// wait for the stall window to end.
	StallRate   float64
	StallPeriod sim.Time
	StallCycles sim.Time

	// TrapRate is the fraction of protocol traps whose handler runs
	// TrapExtra additional cycles (a slow software path).
	TrapRate  float64
	TrapExtra sim.Time

	// DropRate is the fraction of non-local transmission attempts ([0,1])
	// lost in flight; the mesh's reliable transport detects the loss by
	// timeout and retransmits. The same rate also governs ack loss, which
	// provokes a spurious (duplicate) retransmission of a delivered packet.
	// CorruptRate is the fraction of attempts delivered with a corrupted
	// checksum; the receiver discards them and the transport resends after
	// a nack turnaround. Each retransmission is an independent trial.
	DropRate    float64
	CorruptRate float64

	// RetransTimeout is the base retransmit timeout in cycles (doubled per
	// failed attempt, capped by the coherence layer's RetryBackoffMax and
	// floored at the network's lookahead). RetransMax is the
	// retransmit budget per packet: a packet still unacknowledged after
	// RetransMax resends is abandoned and the run halts with a structured
	// diagnostic naming the stuck link.
	RetransTimeout sim.Time
	RetransMax     int
}

// Defaults for magnitude knobs applied when the matching rate is positive
// but the magnitude was left zero.
const (
	DefaultDelayMax       = sim.Time(32)
	DefaultDupDelay       = sim.Time(8)
	DefaultStallPeriod    = sim.Time(1024)
	DefaultStallCycles    = sim.Time(64)
	DefaultTrapExtra      = sim.Time(100)
	DefaultRetransTimeout = sim.Time(64)
	DefaultRetransMax     = 8
)

// withDefaults fills zero magnitudes for active fault classes.
func (c Config) withDefaults() Config {
	if c.DelayRate > 0 && c.DelayMax <= 0 {
		c.DelayMax = DefaultDelayMax
	}
	if c.DupRate > 0 && c.DupDelay <= 0 {
		c.DupDelay = DefaultDupDelay
	}
	if c.StallRate > 0 {
		if c.StallPeriod <= 0 {
			c.StallPeriod = DefaultStallPeriod
		}
		if c.StallCycles <= 0 {
			c.StallCycles = DefaultStallCycles
		}
	}
	if c.TrapRate > 0 && c.TrapExtra <= 0 {
		c.TrapExtra = DefaultTrapExtra
	}
	if c.LossEnabled() {
		if c.RetransTimeout <= 0 {
			c.RetransTimeout = DefaultRetransTimeout
		}
		if c.RetransMax <= 0 {
			c.RetransMax = DefaultRetransMax
		}
	}
	return c
}

// Enabled reports whether any fault class has a positive rate.
func (c Config) Enabled() bool {
	return c.DelayRate > 0 || c.DupRate > 0 || c.StallRate > 0 || c.TrapRate > 0 ||
		c.LossEnabled()
}

// LossEnabled reports whether either loss class (drop, corrupt) is active,
// i.e. whether the mesh must interpose its reliable transport.
func (c Config) LossEnabled() bool {
	return c.DropRate > 0 || c.CorruptRate > 0
}

// String renders the canonical spec: parsing the result reproduces the
// config, so echoing it into a run's output header makes the run
// reproducible from the output alone.
func (c Config) String() string {
	c = c.withDefaults()
	var parts []string
	add := func(k string, rate float64, magk string, mag sim.Time) {
		if rate <= 0 {
			return
		}
		parts = append(parts, k+"="+strconv.FormatFloat(rate, 'g', -1, 64))
		parts = append(parts, magk+"="+strconv.FormatInt(int64(mag), 10))
	}
	add("delay", c.DelayRate, "delaymax", c.DelayMax)
	add("dup", c.DupRate, "dupdelay", c.DupDelay)
	add("stall", c.StallRate, "stallcycles", c.StallCycles)
	if c.StallRate > 0 {
		parts = append(parts, "stallperiod="+strconv.FormatInt(int64(c.StallPeriod), 10))
	}
	add("trap", c.TrapRate, "trapextra", c.TrapExtra)
	if c.DropRate > 0 {
		parts = append(parts, "drop="+strconv.FormatFloat(c.DropRate, 'g', -1, 64))
	}
	if c.CorruptRate > 0 {
		parts = append(parts, "corrupt="+strconv.FormatFloat(c.CorruptRate, 'g', -1, 64))
	}
	if c.LossEnabled() {
		parts = append(parts, "rto="+strconv.FormatInt(int64(c.RetransTimeout), 10))
		parts = append(parts, "rmax="+strconv.Itoa(c.RetransMax))
	}
	sort.Strings(parts)
	return fmt.Sprintf("%d:%s", c.Seed, strings.Join(parts, ","))
}

// Parse reads a "seed:key=value,..." fault spec. Keys: delay, dup, stall,
// trap, drop, corrupt (rates in [0,1]); delaymax, dupdelay, stallperiod,
// stallcycles, trapextra, rto (non-negative cycle magnitudes); rmax (a
// non-negative retransmit budget). Every rate is validated into [0,1] and
// every magnitude must be non-negative — violations produce a per-key
// error — and unknown keys are rejected. An empty key list ("7:") is a
// valid zero-rate plan. Parse(c.String()) round-trips.
func Parse(spec string) (Config, error) {
	var c Config
	head, rest, found := strings.Cut(spec, ":")
	if !found {
		return c, fmt.Errorf("fault: spec %q lacks the seed separator ':' (want \"seed:key=rate,...\")", spec)
	}
	seed, err := strconv.ParseUint(strings.TrimSpace(head), 10, 64)
	if err != nil {
		return c, fmt.Errorf("fault: bad seed in spec %q: %v", spec, err)
	}
	c.Seed = seed
	rest = strings.TrimSpace(rest)
	if rest == "" {
		return c, nil
	}
	for _, kv := range strings.Split(rest, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return c, fmt.Errorf("fault: bad entry %q in spec %q (want key=value)", kv, spec)
		}
		rate := func() (float64, error) {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil || f < 0 || f > 1 {
				return 0, fmt.Errorf("fault: %s rate %q must be a number in [0,1]", k, v)
			}
			return f, nil
		}
		cycles := func() (sim.Time, error) {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil || n < 0 {
				return 0, fmt.Errorf("fault: %s %q must be a non-negative cycle count", k, v)
			}
			return sim.Time(n), nil
		}
		switch k {
		case "delay":
			c.DelayRate, err = rate()
		case "delaymax":
			c.DelayMax, err = cycles()
		case "dup":
			c.DupRate, err = rate()
		case "dupdelay":
			c.DupDelay, err = cycles()
		case "stall":
			c.StallRate, err = rate()
		case "stallperiod":
			c.StallPeriod, err = cycles()
		case "stallcycles":
			c.StallCycles, err = cycles()
		case "trap":
			c.TrapRate, err = rate()
		case "trapextra":
			c.TrapExtra, err = cycles()
		case "drop":
			c.DropRate, err = rate()
		case "corrupt":
			c.CorruptRate, err = rate()
		case "rto":
			c.RetransTimeout, err = cycles()
		case "rmax":
			n, aerr := strconv.Atoi(v)
			if aerr != nil || n < 0 {
				err = fmt.Errorf("fault: rmax %q must be a non-negative retransmit count", v)
			} else {
				c.RetransMax = n
			}
		default:
			return c, fmt.Errorf("fault: unknown key %q in spec %q", k, spec)
		}
		if err != nil {
			return c, err
		}
	}
	return c, nil
}

// Plan is an immutable, concurrency-safe fault schedule. All methods are
// pure functions of their arguments and the seed, so a Plan may be shared
// by runs on several goroutines. A nil *Plan injects nothing.
type Plan struct {
	cfg Config
	// Rates as 32-bit fixed-point thresholds: a hash's low 32 bits below
	// the threshold selects the fault. Fixed-point keeps the decision
	// integer-only and platform-independent.
	delayT, dupT, stallT, trapT, dropT, corruptT uint64
}

// New builds a plan from cfg, applying magnitude defaults. It returns nil
// when the config has no active fault class, so callers can wire
// `plan != nil` as the single injection switch.
func New(cfg Config) *Plan {
	cfg = cfg.withDefaults()
	if !cfg.Enabled() {
		return nil
	}
	th := func(rate float64) uint64 {
		if rate >= 1 {
			return 1 << 32
		}
		return uint64(rate * (1 << 32))
	}
	return &Plan{
		cfg:      cfg,
		delayT:   th(cfg.DelayRate),
		dupT:     th(cfg.DupRate),
		stallT:   th(cfg.StallRate),
		trapT:    th(cfg.TrapRate),
		dropT:    th(cfg.DropRate),
		corruptT: th(cfg.CorruptRate),
	}
}

// Config returns the plan's (default-filled) configuration.
func (p *Plan) Config() Config { return p.cfg }

// Domain tags keep the hash streams of the fault classes independent.
const (
	tagDelay   = 0xD1
	tagDup     = 0xD2
	tagStall   = 0xD3
	tagTrap    = 0xD4
	tagDrop    = 0xD5
	tagCorrupt = 0xD6
	tagAck     = 0xD7
)

// hash mixes the seed, a domain tag, and up to three operands through a
// splitmix64-style finalizer. Stateless: no call-order dependence.
func (p *Plan) hash(tag uint64, a, b, c uint64) uint64 {
	x := p.cfg.Seed ^ (tag * 0x9E3779B97F4A7C15)
	x += a * 0xBF58476D1CE4E5B9
	x += b * 0x94D049BB133111EB
	x += c * 0xD6E8FEB86659FD93
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// PacketDelay returns the extra delivery delay for a packet injected at
// cycle now from src to dst (0 for most packets). Delays are in
// [1, DelayMax] when selected.
func (p *Plan) PacketDelay(now sim.Time, src, dst int) sim.Time {
	h := p.hash(tagDelay, uint64(now), uint64(src)<<20|uint64(dst), 0)
	if h&0xFFFFFFFF >= p.delayT {
		return 0
	}
	return 1 + sim.Time((h>>32)%uint64(p.cfg.DelayMax))
}

// StallDelay returns how long a packet arriving at node at cycle `at` must
// additionally wait for the node's ingress stall window to pass (0 when the
// node is not stalled). Stall windows open at epoch boundaries: in epoch
// e = at/StallPeriod, a selected node is stalled for [e·P, e·P+StallCycles).
func (p *Plan) StallDelay(at sim.Time, node int) sim.Time {
	if p.stallT == 0 || at < 0 {
		return 0
	}
	epoch := at / p.cfg.StallPeriod
	h := p.hash(tagStall, uint64(epoch), uint64(node), 0)
	if h&0xFFFFFFFF >= p.stallT {
		return 0
	}
	end := epoch*p.cfg.StallPeriod + p.cfg.StallCycles
	if at >= end {
		return 0
	}
	return end - at
}

// Duplicate decides whether the protocol message delivered at cycle now
// from src to dst with discriminator key (address ⊕ type) is delivered a
// second time, and with how much extra delay (≥ 1).
func (p *Plan) Duplicate(now sim.Time, src, dst int, key uint64) (extra sim.Time, ok bool) {
	h := p.hash(tagDup, uint64(now), uint64(src)<<20|uint64(dst), key)
	if h&0xFFFFFFFF >= p.dupT {
		return 0, false
	}
	return 1 + sim.Time((h>>32)%uint64(p.cfg.DupDelay)), true
}

// TrapSlowdown returns the extra cycles a protocol trap raised at cycle now
// on node spends in its handler (0 for most traps).
func (p *Plan) TrapSlowdown(now sim.Time, node int) sim.Time {
	h := p.hash(tagTrap, uint64(now), uint64(node), 0)
	if h&0xFFFFFFFF >= p.trapT {
		return 0
	}
	return p.cfg.TrapExtra
}

// Drop reports whether the transmission attempt departing at cycle `at`
// from src to dst carrying per-link sequence number seq is lost in flight.
// A retransmission hashes its own departure cycle, so every attempt is an
// independent trial and the schedule is a pure function of canonical send
// order.
func (p *Plan) Drop(at sim.Time, src, dst int, seq uint64) bool {
	if p.dropT == 0 {
		return false
	}
	h := p.hash(tagDrop, uint64(at), uint64(src)<<20|uint64(dst), seq)
	return h&0xFFFFFFFF < p.dropT
}

// Corrupt reports whether the attempt is delivered with a corrupted
// checksum (the receiver discards it and the transport resends). Drop is
// checked first by the transport, so Corrupt only applies to attempts that
// actually arrive.
func (p *Plan) Corrupt(at sim.Time, src, dst int, seq uint64) bool {
	if p.corruptT == 0 {
		return false
	}
	h := p.hash(tagCorrupt, uint64(at), uint64(src)<<20|uint64(dst), seq)
	return h&0xFFFFFFFF < p.corruptT
}

// AckLost reports whether the acknowledgment of a successfully delivered
// attempt is itself lost, provoking exactly one spurious retransmission
// that the receiver must discard as a duplicate. Ack traffic shares the
// lossy links with data, so ack loss reuses the drop rate (with its own
// hash stream).
func (p *Plan) AckLost(at sim.Time, src, dst int, seq uint64) bool {
	if p.dropT == 0 {
		return false
	}
	h := p.hash(tagAck, uint64(at), uint64(src)<<20|uint64(dst), seq)
	return h&0xFFFFFFFF < p.dropT
}
