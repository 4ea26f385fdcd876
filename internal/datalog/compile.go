package datalog

import (
	"fmt"
	"slices"

	"repro/internal/model"
	"repro/internal/relstore"
)

// This file is the compiler half of the compiled semi-naive engine
// (exec.go holds the executor). A Program is built once per rule set
// and database — update exchange compiles its mapping program a single
// time and reuses it across runs — and turns every rule into flat,
// integer-addressed join programs:
//
//   - each rule's variables are numbered into slots, so a firing pass
//     runs over a reusable []model.Datum with zero map operations;
//   - per body atom, the probe columns (constants and already-bound
//     variables), residual equality checks, and bind positions are
//     precomputed against the greedily chosen join order;
//   - per delta position d, a Δ-specialized program tags every other
//     atom with the partition it may range over — atoms before d see
//     OLD ∪ Δ, atoms after d see OLD only — which is the classic
//     semi-naive decomposition under which every derivation is
//     enumerated exactly once across the whole fixpoint.

// Program is a rule set compiled against the tables of one database.
// It is immutable after Compile except for the per-run storage inside
// its predicate states, which the executor resets on every run; a
// Program must only be executed via engines over the same database.
type Program struct {
	db     *relstore.Database
	rules  []*compiledRule
	preds  []*predState
	predID map[string]int
	// maxSlots is the widest rule's slot count, sizing the executor's
	// reusable binding buffers.
	maxSlots int
	// stateValid reports that the predicate journals, indexes, and age
	// watermarks mirror the backing tables exactly (set after a
	// successful run, cleared by InvalidateState and on run errors), so
	// a delta-seeded run may extend them instead of reseeding.
	stateValid bool
}

// StateValid reports whether the program's persistent evaluation state
// (fact journals, hash indexes, age watermarks) is coherent with the
// backing tables, i.e. whether RunProgramDelta may be used.
func (p *Program) StateValid() bool { return p.stateValid }

// InvalidateState marks the persistent evaluation state stale. Callers
// must invoke it after mutating any backing table outside a run (e.g.
// deletion propagation); the next RunProgram reseeds from the tables.
func (p *Program) InvalidateState() { p.stateValid = false }

// predState is one predicate's compiled metadata plus its storage: an
// append-only journal of the predicate's facts partitioned by age
// watermarks. rows[:oldEnd] were derived two or more rounds ago (OLD),
// rows[oldEnd:deltaEnd] in the previous round (Δ), and rows[deltaEnd:]
// in the current round (NEW — invisible to joins until the round ends
// and the watermarks advance).
type predState struct {
	name  string
	table *relstore.Table
	// keyCols is the table's primary-key column list (nil for keyless
	// tables); the key→position map is keyed by its encoding.
	keyCols []int

	rows     []model.Tuple
	oldEnd   int
	deltaEnd int
	// pos maps a row's primary-key encoding to its journal position —
	// the O(deleted)-repair index of ApplyDeletions. Built lazily up to
	// posBuilt: runs skip it entirely on the insert hot path and the
	// first repair after a run extends it.
	pos      map[string]int32
	posBuilt int
	// indexes holds one probe index per column pattern the compiled
	// join steps need. Buckets store row positions in ascending order,
	// so a partition bound is a cutoff, not a filter.
	indexes []*probeIndex
}

// probeIndex is a hash index over a predicate's journal for one probe
// column pattern. built is the journal watermark the index covers; it
// is extended to deltaEnd at the start of every round.
type probeIndex struct {
	cols    []int
	buckets map[string][]int32
	built   int
}

// partition selects which journal region a join step may range over.
type partition uint8

const (
	// partOld restricts a step to rows derived before the previous
	// round.
	partOld partition = iota
	// partFull admits OLD ∪ Δ (everything except the current round's
	// NEW rows).
	partFull
)

// colConst checks a column against a constant.
type colConst struct {
	col int
	val model.Datum
}

// colSlot ties a column to a binding slot (a bind target or an
// equality check source, depending on context).
type colSlot struct {
	col  int
	slot int
}

// colRef is a column constrained by either a constant or a slot.
type colRef struct {
	col     int
	isConst bool
	konst   model.Datum
	slot    int
}

// compiledRule is one rule lowered to slot form.
type compiledRule struct {
	// rule is a copy of the source rule; hooks receive its address.
	rule Rule
	// slotVars names each slot, in slot order (first body occurrence).
	slotVars []string
	slotOf   map[string]int
	heads    []headSpec
	// progs holds one Δ-specialized join program per body position.
	progs []deltaProg
}

// headSpec materializes one head atom from a completed binding.
type headSpec struct {
	pred *predState
	cols []headCol
}

type headCol struct {
	isConst bool
	konst   model.Datum
	slot    int
}

// deltaProg is the rule specialized to "the Δ fact sits at body
// position d": the seed spec matches a Δ row, then the remaining atoms
// join in precomputed greedy order against their partitions.
type deltaProg struct {
	pred *predState
	seed seedSpec
	// steps covers every body atom except the Δ position.
	steps []joinStep
}

// seedSpec matches one Δ row against the rule's delta atom: constant
// rejects first, then slot binds, then repeated-variable equality
// checks (whose slots the binds just filled).
type seedSpec struct {
	consts []colConst
	binds  []colSlot
	eqs    []colSlot
}

// joinStep extends a partial binding through one body atom. When probe
// is non-empty the step goes through index, whose buckets already
// satisfy every probe constraint; checks holds only the residual
// intra-atom repeated-variable equalities. An unconstrained step (nil
// index) scans its partition.
type joinStep struct {
	pred   *predState
	part   partition
	probe  []colRef
	checks []colSlot
	binds  []colSlot
	index  *probeIndex
}

// Compile lowers rules into a Program over db's tables. It fails on
// predicates without tables, on head wildcards, and on head variables
// not bound in the body — conditions the legacy engine only detects at
// evaluation time.
func Compile(db *relstore.Database, rules []Rule) (*Program, error) {
	p := &Program{db: db, predID: make(map[string]int)}
	for i := range rules {
		cr, err := p.compileRule(rules[i])
		if err != nil {
			return nil, err
		}
		p.rules = append(p.rules, cr)
		if n := len(cr.slotVars); n > p.maxSlots {
			p.maxSlots = n
		}
	}
	return p, nil
}

// pred interns the predicate state for a table-backed predicate.
func (p *Program) pred(name string) (*predState, error) {
	if id, ok := p.predID[name]; ok {
		return p.preds[id], nil
	}
	t, ok := p.db.Table(name)
	if !ok {
		return nil, fmt.Errorf("datalog: predicate %q has no table", name)
	}
	ps := &predState{name: name, table: t, keyCols: t.Schema.Key}
	p.predID[name] = len(p.preds)
	p.preds = append(p.preds, ps)
	return ps, nil
}

// ensureIndex returns the probe index on exactly cols, registering it
// on first use.
func (ps *predState) ensureIndex(cols []int) *probeIndex {
	for _, ix := range ps.indexes {
		if slices.Equal(ix.cols, cols) {
			return ix
		}
	}
	ix := &probeIndex{cols: cols, buckets: make(map[string][]int32)}
	ps.indexes = append(ps.indexes, ix)
	return ix
}

func (p *Program) compileRule(r Rule) (*compiledRule, error) {
	cr := &compiledRule{rule: r, slotOf: make(map[string]int)}
	slot := func(v string) int {
		if s, ok := cr.slotOf[v]; ok {
			return s
		}
		s := len(cr.slotVars)
		cr.slotOf[v] = s
		cr.slotVars = append(cr.slotVars, v)
		return s
	}
	// Number every body variable in first-occurrence order. Head
	// variables must re-use body slots (range restriction).
	for _, a := range r.Body {
		for _, v := range a.Vars() {
			slot(v)
		}
	}
	for _, h := range r.Heads {
		ps, err := p.pred(h.Rel)
		if err != nil {
			return nil, err
		}
		hs := headSpec{pred: ps, cols: make([]headCol, len(h.Args))}
		for i, t := range h.Args {
			if t.IsConst {
				hs.cols[i] = headCol{isConst: true, konst: t.Const}
				continue
			}
			if t.Var == "_" {
				return nil, fmt.Errorf("datalog: rule %s has wildcard in head", r.ID)
			}
			s, bound := cr.slotOf[t.Var]
			if !bound {
				return nil, fmt.Errorf("datalog: rule %s head variable %q unbound", r.ID, t.Var)
			}
			hs.cols[i] = headCol{slot: s}
		}
		cr.heads = append(cr.heads, hs)
	}
	for d := range r.Body {
		dp, err := p.compileDeltaProg(cr, r, d)
		if err != nil {
			return nil, err
		}
		cr.progs = append(cr.progs, dp)
	}
	return cr, nil
}

// compileDeltaProg builds the Δ-specialization of r at body position d.
func (p *Program) compileDeltaProg(cr *compiledRule, r Rule, d int) (deltaProg, error) {
	var dp deltaProg
	ps, err := p.pred(r.Body[d].Rel)
	if err != nil {
		return dp, err
	}
	dp.pred = ps
	bound := make(map[string]bool)
	// Seed spec for the Δ atom itself.
	for col, t := range r.Body[d].Args {
		switch {
		case t.IsConst:
			dp.seed.consts = append(dp.seed.consts, colConst{col: col, val: t.Const})
		case t.Var == "_":
		case bound[t.Var]:
			dp.seed.eqs = append(dp.seed.eqs, colSlot{col: col, slot: cr.slotOf[t.Var]})
		default:
			bound[t.Var] = true
			dp.seed.binds = append(dp.seed.binds, colSlot{col: col, slot: cr.slotOf[t.Var]})
		}
	}
	// Greedy ordering of the remaining atoms (the physplan planner's
	// approach): most equality-constrained columns first, connectivity
	// to the bound variables as tiebreak, then body order.
	remaining := make([]int, 0, len(r.Body)-1)
	for j := range r.Body {
		if j != d {
			remaining = append(remaining, j)
		}
	}
	for len(remaining) > 0 {
		best, bestScore, bestConn := -1, -1, false
		for _, j := range remaining {
			score, conn := 0, false
			for _, t := range r.Body[j].Args {
				switch {
				case t.IsConst:
					score++
				case t.Var != "_" && bound[t.Var]:
					score++
					conn = true
				}
			}
			if score > bestScore || (score == bestScore && conn && !bestConn) {
				best, bestScore, bestConn = j, score, conn
			}
		}
		j := best
		for k, rj := range remaining {
			if rj == j {
				remaining = append(remaining[:k], remaining[k+1:]...)
				break
			}
		}
		st, err := p.compileStep(cr, r.Body[j], j < d, bound)
		if err != nil {
			return dp, err
		}
		dp.steps = append(dp.steps, st)
	}
	return dp, nil
}

// compileStep lowers one non-Δ body atom given the set of variables
// bound so far (which it extends with the atom's fresh variables).
func (p *Program) compileStep(cr *compiledRule, a model.Atom, beforeDelta bool, bound map[string]bool) (joinStep, error) {
	ps, err := p.pred(a.Rel)
	if err != nil {
		return joinStep{}, err
	}
	st := joinStep{pred: ps, part: partOld}
	if beforeDelta {
		st.part = partFull
	}
	for col, t := range a.Args {
		switch {
		case t.IsConst:
			st.probe = append(st.probe, colRef{col: col, isConst: true, konst: t.Const})
		case t.Var == "_":
		case bound[t.Var]:
			st.probe = append(st.probe, colRef{col: col, slot: cr.slotOf[t.Var]})
		default:
			bound[t.Var] = true
			st.binds = append(st.binds, colSlot{col: col, slot: cr.slotOf[t.Var]})
		}
	}
	// A variable bound by this very atom (a repeated variable like
	// R(x, x) with x fresh) cannot join the probe key — the bind
	// happens while reading the row — so it becomes a residual check.
	// Re-walk the columns: binds marked the variable bound, so later
	// occurrences landed in probe; move those to checks.
	if len(st.binds) > 0 {
		ownSlots := make(map[int]bool, len(st.binds))
		firstCol := make(map[int]int, len(st.binds))
		for _, b := range st.binds {
			ownSlots[b.slot] = true
			firstCol[b.slot] = b.col
		}
		kept := st.probe[:0]
		for _, pr := range st.probe {
			if !pr.isConst && ownSlots[pr.slot] && pr.col > firstCol[pr.slot] {
				st.checks = append(st.checks, colSlot{col: pr.col, slot: pr.slot})
				continue
			}
			kept = append(kept, pr)
		}
		st.probe = kept
	}
	if len(st.probe) > 0 {
		cols := make([]int, len(st.probe))
		for i, pr := range st.probe {
			cols[i] = pr.col
		}
		st.index = ps.ensureIndex(cols)
	}
	return st, nil
}

// VarSlots resolves variable names to slot positions for the (first)
// rule with the given ID, so hooks can read a fixed set of variables
// per firing with integer indexing instead of per-firing map lookups.
func (p *Program) VarSlots(ruleID string, vars []string) ([]int, error) {
	cr, err := p.ruleByID(ruleID)
	if err != nil {
		return nil, err
	}
	out := make([]int, len(vars))
	for i, v := range vars {
		s, ok := cr.slotOf[v]
		if !ok {
			return nil, fmt.Errorf("datalog: rule %s has no variable %q", ruleID, v)
		}
		out[i] = s
	}
	return out, nil
}

func (p *Program) ruleByID(ruleID string) (*compiledRule, error) {
	for _, cr := range p.rules {
		if cr.rule.ID == ruleID {
			return cr, nil
		}
	}
	return nil, fmt.Errorf("datalog: no rule %q in program", ruleID)
}
