package coherence

import (
	"bytes"
	"fmt"
	"go/format"
	"reflect"
	"runtime"
	"strings"

	"limitless/internal/protocol"
)

// This file is the table compiler: it walks the registered protocol tables
// and renders tables_compiled.go, the direct-threaded dispatch the
// controllers run under TableCompiled. Each dense (state, meta, message)
// cell's candidate-row program becomes straight-line Go — guard test,
// coverage hit, direct action call — inside one switch per table, so the
// declarative layer costs nothing at runtime. The interpreter
// (protocol.Table.Dispatch) stays as the behavioral oracle; the oracle
// differential tests (oracle_test.go) hold the two bit-identical.
//
// The compiler resolves each row's Guard and Action function values back
// to their package-level symbols via the runtime's PC-to-name table, which
// is why every row must use a named top-level function: a closure would
// have no symbol to emit a call to, and the generator rejects it.

// coherencePkg is the import path symbols must resolve under.
const coherencePkg = "limitless/internal/coherence."

// schemeConst maps registry IDs to the generated file's registration
// constants. Unknown IDs (a newly added scheme) fall back to a numeric
// SchemeID cast, so the generator never silently skips a scheme.
var schemeConst = map[protocol.SchemeID]string{
	protocol.FullMap:      "protocol.FullMap",
	protocol.LimitedNB:    "protocol.LimitedNB",
	protocol.LimitLESS:    "protocol.LimitLESS",
	protocol.SoftwareOnly: "protocol.SoftwareOnly",
	protocol.PrivateOnly:  "protocol.PrivateOnly",
	protocol.Chained:      "protocol.Chained",
}

// GenerateCompiledTables renders the source of tables_compiled.go from the
// live protocol registry: one memory-side and one cache-side dispatch
// function per scheme, plus the init that registers them. The output is
// gofmt-formatted; writing it is cmd/tablegen's job.
func GenerateCompiledTables() ([]byte, error) {
	var b bytes.Buffer
	b.WriteString(`// Code generated by cmd/tablegen. DO NOT EDIT.

// Direct-threaded protocol dispatch compiled from the declarative tables
// in the policy_*.go modules. Regenerate with: go generate ./internal/coherence
package coherence

import "limitless/internal/protocol"

func init() {
`)
	type fns struct{ mem, cache string }
	regs := make([]fns, 0, protocol.NumSchemes)
	for _, info := range protocol.Schemes() {
		p := policyFor(info.ID)
		if p == nil {
			return nil, fmt.Errorf("tablegen: scheme %s has no registered policy", info.Name)
		}
		ident := goIdent(info.Name)
		regs = append(regs, fns{mem: "memDispatch" + ident, cache: "cacheDispatch" + ident})
	}
	for i, info := range protocol.Schemes() {
		sc, ok := schemeConst[info.ID]
		if !ok {
			sc = fmt.Sprintf("protocol.SchemeID(%d)", info.ID)
		}
		fmt.Fprintf(&b, "\tregisterCompiled(%s, %s, %s)\n", sc, regs[i].mem, regs[i].cache)
	}
	b.WriteString("}\n")

	for i, info := range protocol.Schemes() {
		p := policyFor(info.ID)
		if err := emitMemDispatch(&b, regs[i].mem, p.mem); err != nil {
			return nil, fmt.Errorf("tablegen: %s: %w", p.mem.Spec().Name, err)
		}
		if err := emitCacheDispatch(&b, regs[i].cache, p.cache); err != nil {
			return nil, fmt.Errorf("tablegen: %s: %w", p.cache.Spec().Name, err)
		}
	}
	src, err := format.Source(b.Bytes())
	if err != nil {
		return nil, fmt.Errorf("tablegen: generated source does not format: %w", err)
	}
	return src, nil
}

// goIdent camel-cases a public scheme name ("software-only" → "SoftwareOnly")
// into the generated function-name suffix.
func goIdent(name string) string {
	parts := strings.Split(name, "-")
	for i, p := range parts {
		if p != "" {
			parts[i] = strings.ToUpper(p[:1]) + p[1:]
		}
	}
	return strings.Join(parts, "")
}

// symbolOf resolves a row's guard or action function value to its
// package-level symbol. Nil functions resolve to "".
func symbolOf(fn any) (string, error) {
	v := reflect.ValueOf(fn)
	if v.IsNil() {
		return "", nil
	}
	f := runtime.FuncForPC(v.Pointer())
	if f == nil {
		return "", fmt.Errorf("function value has no runtime symbol")
	}
	name := f.Name()
	if !strings.HasPrefix(name, coherencePkg) {
		return "", fmt.Errorf("row function %s lives outside %s", name, strings.TrimSuffix(coherencePkg, "."))
	}
	sym := name[len(coherencePkg):]
	if strings.ContainsAny(sym, ".[") {
		return "", fmt.Errorf("row function %s is not a named top-level function; hoist it so the compiler can emit a direct call", name)
	}
	return sym, nil
}

// caseGroup collects the cells sharing one compiled program body.
type caseGroup struct {
	body   string
	keys   []string // case label literals
	labels []string // human-readable triples for the comment
}

// cellBody renders the straight-line program of one cell: the candidate
// rows in declaration order, exactly as the interpreter would try them.
// rowAt returns (guard symbol, action symbol, row ID) for a row index.
func cellBody(rows []int32, impossible bool, rowAt func(int32) (string, string, string, error)) (string, error) {
	var b strings.Builder
	for _, ri := range rows {
		guard, action, id, err := rowAt(ri)
		if err != nil {
			return "", err
		}
		var fire strings.Builder
		fmt.Fprintf(&fire, "if t.CoverageEnabled() {\nt.Hit(%d)\n}\n", ri)
		if action != "" {
			fmt.Fprintf(&fire, "%s(c)\n", action)
		}
		fire.WriteString("return protocol.Matched\n")
		if guard != "" {
			fmt.Fprintf(&b, "if %s(c) { // row %s\n%s}\n", guard, id, fire.String())
			continue
		}
		// An unguarded row always fires; later candidates are unreachable,
		// matching the interpreter's first-match scan.
		fmt.Fprintf(&b, "// row %s\n%s", id, fire.String())
		return b.String(), nil
	}
	if impossible {
		b.WriteString("return protocol.VerdictImpossible\n")
	} else {
		b.WriteString("return protocol.NoRow\n")
	}
	return b.String(), nil
}

// groupCases renders the switch cases, merging cells whose compiled
// programs are identical into multi-value cases.
func groupCases(b *bytes.Buffer, groups []*caseGroup) {
	for _, g := range groups {
		for i, k := range g.keys {
			lead := "\t\t"
			if i == 0 {
				lead = "\tcase "
			}
			sep := ","
			if i == len(g.keys)-1 {
				sep = ":"
			}
			fmt.Fprintf(b, "%s%s%s // %s\n", lead, k, sep, g.labels[i])
		}
		b.WriteString(g.body)
	}
}

// emitMemDispatch renders one memory-side dispatcher. The switch key packs
// (state, meta, message) into one integer; any component outside the spec
// matches no case and falls through to NoRow, exactly like Table.cell.
func emitMemDispatch(b *bytes.Buffer, name string, tbl *protocol.Table[memCtx]) error {
	fmt.Fprintf(b, `
// %s is the compiled form of the %s table.
func %s(t *protocol.Table[memCtx], c *memCtx, state, meta, msg uint8) protocol.Verdict {
	switch uint32(state)<<16 | uint32(meta)<<8 | uint32(msg) {
`, name, tbl.Spec().Name, name)

	rowAt := func(ri int32) (string, string, string, error) {
		r := tbl.RowAt(int(ri))
		guard, err := symbolOf(r.Guard)
		if err != nil {
			return "", "", "", fmt.Errorf("row %s guard: %w", r.ID, err)
		}
		action, err := symbolOf(r.Action)
		if err != nil {
			return "", "", "", fmt.Errorf("row %s action: %w", r.ID, err)
		}
		return guard, action, r.ID, nil
	}

	var groups []*caseGroup
	byBody := make(map[string]*caseGroup)
	for _, prog := range tbl.CellPrograms() {
		if len(prog.Rows) == 0 && !prog.Impossible {
			continue // default: NoRow
		}
		body, err := cellBody(prog.Rows, prog.Impossible, rowAt)
		if err != nil {
			return err
		}
		g := byBody[body]
		if g == nil {
			g = &caseGroup{body: body}
			byBody[body] = g
			groups = append(groups, g)
		}
		g.keys = append(g.keys, fmt.Sprintf("0x%02X%02X%02X", prog.State, prog.Meta, prog.Msg))
		g.labels = append(g.labels, tbl.Describe(prog.State, prog.Meta, prog.Msg))
	}
	groupCases(b, groups)
	b.WriteString("\t}\n\treturn protocol.NoRow\n}\n")
	return nil
}

// emitCacheDispatch renders one cache-side dispatcher. Cache tables have
// no meta axis — the interpreter accepts any meta value — so the compiled
// form drops the parameter entirely.
func emitCacheDispatch(b *bytes.Buffer, name string, tbl *protocol.Table[cacheCtx]) error {
	fmt.Fprintf(b, `
// %s is the compiled form of the %s table.
func %s(t *protocol.Table[cacheCtx], c *cacheCtx, state, msg uint8) protocol.Verdict {
	switch uint32(state)<<8 | uint32(msg) {
`, name, tbl.Spec().Name, name)

	rowAt := func(ri int32) (string, string, string, error) {
		r := tbl.RowAt(int(ri))
		guard, err := symbolOf(r.Guard)
		if err != nil {
			return "", "", "", fmt.Errorf("row %s guard: %w", r.ID, err)
		}
		action, err := symbolOf(r.Action)
		if err != nil {
			return "", "", "", fmt.Errorf("row %s action: %w", r.ID, err)
		}
		return guard, action, r.ID, nil
	}

	var groups []*caseGroup
	byBody := make(map[string]*caseGroup)
	for _, prog := range tbl.CellPrograms() {
		if len(prog.Rows) == 0 && !prog.Impossible {
			continue
		}
		body, err := cellBody(prog.Rows, prog.Impossible, rowAt)
		if err != nil {
			return err
		}
		g := byBody[body]
		if g == nil {
			g = &caseGroup{body: body}
			byBody[body] = g
			groups = append(groups, g)
		}
		g.keys = append(g.keys, fmt.Sprintf("0x%02X%02X", prog.State, prog.Msg))
		g.labels = append(g.labels, tbl.Describe(prog.State, protocol.Any, prog.Msg))
	}
	groupCases(b, groups)
	b.WriteString("\t}\n\treturn protocol.NoRow\n}\n")
	return nil
}
