package protocol

import (
	"fmt"
	"sync/atomic"
)

// Any is the wildcard key: a row (or impossibility declaration) with an
// Any state, meta or message matches every value on that axis.
const Any uint8 = 0xFF

// MsgDef names one message value a table dispatches on. Tables do not
// assume message values are dense: each spec lists exactly the messages
// its side of the protocol can receive.
type MsgDef struct {
	Val  uint8
	Name string
}

// Spec fixes a table's axes: the state names (indexed by state value), the
// meta-state names (nil for tables without a meta axis) and the messages
// the table receives.
type Spec struct {
	// Name identifies the table in diagnostics, e.g. "limitless/memory".
	Name string
	// States names the primary state axis; state value i is States[i].
	States []string
	// Metas names the meta axis, or nil when the table has none.
	Metas []string
	// Msgs enumerates the receivable messages.
	Msgs []MsgDef
}

// Row is one guarded transition: when the keys match the dispatched
// (state, meta, message) triple and Guard accepts (a nil Guard always
// accepts), Action runs and dispatch stops. Rows are tried in declaration
// order, so a guarded special case precedes its unconditional fallback.
// A nil Action absorbs the message without further effect.
type Row[C any] struct {
	// State, Meta, Msg are the match keys; Any wildcards an axis. Tables
	// without a meta axis use Any (or 0) for Meta.
	State, Meta, Msg uint8
	// ID names the row uniquely within its table — the handle coverage
	// baselines, tests and documentation refer to.
	ID string
	// Doc is a one-line description of the transition.
	Doc string
	// Guard, when non-nil, must accept for the row to fire. Guards must
	// not mutate the context or the simulated machine.
	Guard func(*C) bool
	// Action performs the transition. nil absorbs the message.
	Action func(*C)
}

// Impossible declares that any (state, meta, message) triple it matches is
// unreachable under the protocol's delivery assumptions. Dispatch arriving
// at a declared-impossible triple (after every guarded row refused) yields
// VerdictImpossible; the checker treats the declaration as handling the
// triple.
type Impossible struct {
	State, Meta, Msg uint8
	// Reason documents why the triple cannot occur.
	Reason string
}

// Verdict is the outcome of a Dispatch.
type Verdict uint8

const (
	// Matched: a row fired (or absorbed the message).
	Matched Verdict = iota
	// VerdictImpossible: no row fired and the triple is declared
	// impossible — the caller should report a protocol violation citing
	// the declaration's reason.
	VerdictImpossible
	// NoRow: no row fired and nothing is declared about the triple; a
	// table accepted by Check never returns this for in-range triples.
	NoRow
)

// Table is an immutable transition table plus its dispatch index and
// per-row coverage counters. The counters are atomics and the enable flag
// is an atomic bool, so coverage can be toggled and read while simulations
// run on other goroutines (parallel sweeps).
type Table[C any] struct {
	spec   Spec
	rows   []Row[C]
	imposs []Impossible

	nStates, nMetas int
	msgIndex        [256]int16 // message value → dense msg index, -1 absent
	nMsgs           int

	// dispatch holds, per dense (state, meta, msg) cell, the indices of
	// the rows matching that cell in declaration order.
	dispatch [][]int32
	// impossFor holds, per cell, the index into imposs of the first
	// matching declaration, or -1.
	impossFor []int16

	coverOn atomic.Bool
	cover   []atomic.Uint64
}

// New builds a table from a spec, its rows and its impossibility
// declarations. It panics on malformed input (out-of-range keys, duplicate
// row IDs): table construction happens once at package init, and a bad
// table is a programming error.
func New[C any](spec Spec, rows []Row[C], imposs []Impossible) *Table[C] {
	t := &Table[C]{spec: spec, rows: rows, imposs: imposs}
	t.nStates = len(spec.States)
	t.nMetas = len(spec.Metas)
	if t.nMetas == 0 {
		t.nMetas = 1
	}
	if t.nStates == 0 {
		panic(fmt.Sprintf("protocol: table %s has no states", spec.Name))
	}
	for i := range t.msgIndex {
		t.msgIndex[i] = -1
	}
	for i, md := range spec.Msgs {
		if t.msgIndex[md.Val] >= 0 {
			panic(fmt.Sprintf("protocol: table %s declares message %s twice", spec.Name, md.Name))
		}
		t.msgIndex[md.Val] = int16(i)
	}
	t.nMsgs = len(spec.Msgs)

	ids := make(map[string]bool, len(rows))
	for i := range rows {
		r := &rows[i]
		if r.ID == "" {
			panic(fmt.Sprintf("protocol: table %s row %d has no ID", spec.Name, i))
		}
		if ids[r.ID] {
			panic(fmt.Sprintf("protocol: table %s duplicate row ID %q", spec.Name, r.ID))
		}
		ids[r.ID] = true
		t.checkKeys(spec.Name+" row "+r.ID, r.State, r.Meta, r.Msg)
	}
	for _, d := range imposs {
		t.checkKeys(spec.Name+" impossible", d.State, d.Meta, d.Msg)
	}

	cells := t.nStates * t.nMetas * t.nMsgs
	t.dispatch = make([][]int32, cells)
	t.impossFor = make([]int16, cells)
	for i := range t.impossFor {
		t.impossFor[i] = -1
	}
	for ri := range rows {
		r := &rows[ri]
		t.forEachCell(r.State, r.Meta, r.Msg, func(cell int) {
			t.dispatch[cell] = append(t.dispatch[cell], int32(ri))
		})
	}
	for di, d := range imposs {
		di := di
		t.forEachCell(d.State, d.Meta, d.Msg, func(cell int) {
			if t.impossFor[cell] < 0 {
				t.impossFor[cell] = int16(di)
			}
		})
	}
	t.cover = make([]atomic.Uint64, len(rows))
	return t
}

func (t *Table[C]) checkKeys(what string, state, meta, msg uint8) {
	if state != Any && int(state) >= t.nStates {
		panic(fmt.Sprintf("protocol: %s: state %d out of range", what, state))
	}
	if meta != Any && int(meta) >= t.nMetas {
		panic(fmt.Sprintf("protocol: %s: meta %d out of range", what, meta))
	}
	if msg != Any && t.msgIndex[msg] < 0 {
		panic(fmt.Sprintf("protocol: %s: message %d not in spec", what, msg))
	}
}

// forEachCell expands wildcard keys into the dense cells they cover.
func (t *Table[C]) forEachCell(state, meta, msg uint8, fn func(cell int)) {
	states := []int{int(state)}
	if state == Any {
		states = seq(t.nStates)
	}
	metas := []int{int(meta)}
	if meta == Any || t.nMetas == 1 {
		metas = seq(t.nMetas)
	}
	msgs := []int{}
	if msg == Any {
		msgs = seq(t.nMsgs)
	} else {
		msgs = append(msgs, int(t.msgIndex[msg]))
	}
	for _, s := range states {
		for _, mt := range metas {
			for _, mg := range msgs {
				fn((s*t.nMetas+mt)*t.nMsgs + mg)
			}
		}
	}
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// cell returns the dense index for a triple, or -1 when any component is
// outside the spec.
func (t *Table[C]) cell(state, meta, msg uint8) int {
	if int(state) >= t.nStates {
		return -1
	}
	mt := int(meta)
	if t.nMetas == 1 {
		mt = 0
	} else if mt >= t.nMetas {
		return -1
	}
	mg := t.msgIndex[msg]
	if mg < 0 {
		return -1
	}
	return (int(state)*t.nMetas+mt)*t.nMsgs + int(mg)
}

// Dispatch finds the first matching row whose guard accepts and runs its
// action. It is the controllers' hot path: no allocation, one indexed
// lookup plus the candidate scan (cells hold only the rows that can match
// them, typically one or two).
func (t *Table[C]) Dispatch(state, meta, msg uint8, ctx *C) Verdict {
	cell := t.cell(state, meta, msg)
	if cell < 0 {
		return NoRow
	}
	for _, ri := range t.dispatch[cell] {
		r := &t.rows[ri]
		if r.Guard != nil && !r.Guard(ctx) {
			continue
		}
		if t.coverOn.Load() {
			t.cover[ri].Add(1)
		}
		if r.Action != nil {
			r.Action(ctx)
		}
		return Matched
	}
	if t.impossFor[cell] >= 0 {
		return VerdictImpossible
	}
	return NoRow
}

// Spec returns the table's axes.
func (t *Table[C]) Spec() Spec { return t.spec }

// Reason returns the impossibility reason declared for a triple, or "".
func (t *Table[C]) Reason(state, meta, msg uint8) string {
	cell := t.cell(state, meta, msg)
	if cell < 0 || t.impossFor[cell] < 0 {
		return ""
	}
	return t.imposs[t.impossFor[cell]].Reason
}

// Describe renders a triple with the spec's axis names, for diagnostics:
// "Read-Only/Normal/REPM" (the meta component is omitted for tables
// without a meta axis).
func (t *Table[C]) Describe(state, meta, msg uint8) string {
	return t.describeKeys(state, meta, msg)
}

func (t *Table[C]) describeKeys(state, meta, msg uint8) string {
	name := func(axis []string, v uint8) string {
		if v == Any {
			return "*"
		}
		if int(v) < len(axis) {
			return axis[int(v)]
		}
		return fmt.Sprintf("?%d", v)
	}
	msgName := "*"
	if msg != Any {
		msgName = fmt.Sprintf("?%d", msg)
		if mi := t.msgIndex[msg]; mi >= 0 {
			msgName = t.spec.Msgs[mi].Name
		}
	}
	if len(t.spec.Metas) == 0 {
		return name(t.spec.States, state) + "/" + msgName
	}
	return name(t.spec.States, state) + "/" + name(t.spec.Metas, meta) + "/" + msgName
}

// RowCoverage reports one row's identity and hit count.
type RowCoverage struct {
	Table string
	Row   string
	Keys  string // rendered match keys, e.g. "Read-Only/*/RREQ"
	Doc   string
	Count uint64
}

// SetCoverage enables or disables the per-row hit counters.
func (t *Table[C]) SetCoverage(on bool) { t.coverOn.Store(on) }

// ResetCoverage zeroes the hit counters.
func (t *Table[C]) ResetCoverage() {
	for i := range t.cover {
		t.cover[i].Store(0)
	}
}

// Coverage returns every row with its current hit count, in declaration
// order.
func (t *Table[C]) Coverage() []RowCoverage {
	out := make([]RowCoverage, len(t.rows))
	for i := range t.rows {
		r := &t.rows[i]
		out[i] = RowCoverage{
			Table: t.spec.Name,
			Row:   r.ID,
			Keys:  t.describeKeys(r.State, r.Meta, r.Msg),
			Doc:   r.Doc,
			Count: t.cover[i].Load(),
		}
	}
	return out
}
