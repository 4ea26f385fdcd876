package datalog

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/relstore"
)

// Binding maps variable names to datums during rule evaluation.
type Binding map[string]model.Datum

// DerivationHook is called once for every rule firing (a distinct
// combination of body tuples satisfying the rule). Update exchange uses
// it to populate provenance relations: the binding restricted to the
// mapping's provenance attributes is exactly one provenance-relation
// row (one derivation node of the provenance graph).
type DerivationHook func(rule *Rule, binding Binding)

// indexThreshold is the table size above which the engine builds a
// secondary hash index for a repeated probe pattern instead of
// scanning.
const indexThreshold = 32

// EngineLegacy is the original tuple-at-a-time interpreter. It is the
// test oracle of the compiled engine (exec.go) — the datalog and
// exchange differentials run both and compare — and has no production
// caller. It evaluates positive Datalog programs bottom-up over a
// relstore database; each predicate is a table and head facts are
// inserted with the table's set semantics (primary key identity). Its
// delta discipline is coarse: a derivation whose body facts enter the
// delta in the same iteration is re-enumerated once per delta
// position, so the hook can fire several times for one distinct
// derivation (the compiled engine fixes this; consumers keying on all
// columns absorb the duplicates).
type EngineLegacy struct {
	DB   *relstore.Database
	Hook DerivationHook

	// delta tracks the rows inserted in the previous iteration, per
	// predicate, for semi-naive evaluation.
	delta map[string][]model.Tuple
	// next accumulates rows inserted in the current iteration.
	next map[string][]model.Tuple
	// Stats
	Iterations  int
	Derivations int
}

// NewEngineLegacy builds a legacy interpreting engine over db.
func NewEngineLegacy(db *relstore.Database) *EngineLegacy {
	return &EngineLegacy{DB: db}
}

// Run evaluates the rules to fixpoint. All facts already present in the
// database are treated as the initial delta. The evaluation is
// semi-naive at the granularity of one designated delta atom per rule
// firing pass; duplicate derivation enumerations that this coarse
// discipline can produce are absorbed by the set semantics of the
// consumer (provenance tables key on all columns).
func (e *EngineLegacy) Run(rules []Rule) error {
	// Seed delta with every existing fact.
	e.delta = make(map[string][]model.Tuple)
	preds := make(map[string]bool)
	for _, r := range rules {
		for _, a := range r.Body {
			preds[a.Rel] = true
		}
		for _, h := range r.Heads {
			preds[h.Rel] = true
		}
	}
	for p := range preds {
		t, ok := e.DB.Table(p)
		if !ok {
			return fmt.Errorf("datalog: predicate %q has no table", p)
		}
		rows := make([]model.Tuple, 0, t.Len())
		t.Iterate(func(row model.Tuple) bool {
			rows = append(rows, row)
			return true
		})
		if len(rows) > 0 {
			e.delta[p] = rows
		}
	}
	e.Iterations = 0
	for len(e.delta) > 0 {
		e.Iterations++
		e.next = make(map[string][]model.Tuple)
		for i := range rules {
			if err := e.evalRule(&rules[i]); err != nil {
				return err
			}
		}
		e.delta = e.next
	}
	return nil
}

// evalRule fires the rule for every combination of body tuples that
// includes at least one delta tuple.
func (e *EngineLegacy) evalRule(r *Rule) error {
	for i := range r.Body {
		deltaRows := e.delta[r.Body[i].Rel]
		if len(deltaRows) == 0 {
			continue
		}
		for _, row := range deltaRows {
			binding := make(Binding)
			if !matchAtom(r.Body[i], row, binding) {
				continue
			}
			if err := e.joinRest(r, i, 0, binding); err != nil {
				return err
			}
		}
	}
	return nil
}

// joinRest extends binding over the body atoms other than skip,
// processed in order; on a complete match it fires the rule.
func (e *EngineLegacy) joinRest(r *Rule, skip, pos int, binding Binding) error {
	if pos == skip {
		return e.joinRest(r, skip, pos+1, binding)
	}
	if pos >= len(r.Body) {
		return e.fire(r, binding)
	}
	atom := r.Body[pos]
	rows, err := e.candidates(atom, binding)
	if err != nil {
		return err
	}
	for _, row := range rows {
		// Record which vars this atom newly binds so we can undo.
		added := make([]string, 0, 4)
		ok := true
		for k, t := range atom.Args {
			if t.IsConst {
				if !model.Equal(row[k], t.Const) {
					ok = false
					break
				}
				continue
			}
			if t.Var == "_" {
				continue
			}
			if v, bound := binding[t.Var]; bound {
				if !model.Equal(v, row[k]) {
					ok = false
					break
				}
				continue
			}
			binding[t.Var] = row[k]
			added = append(added, t.Var)
		}
		if ok {
			if err := e.joinRest(r, skip, pos+1, binding); err != nil {
				return err
			}
		}
		for _, v := range added {
			delete(binding, v)
		}
	}
	return nil
}

// candidates returns the rows of atom's table consistent with the
// bound columns of atom under binding, using (and lazily creating)
// secondary indexes for large tables.
func (e *EngineLegacy) candidates(atom model.Atom, binding Binding) ([]model.Tuple, error) {
	t, ok := e.DB.Table(atom.Rel)
	if !ok {
		return nil, fmt.Errorf("datalog: predicate %q has no table", atom.Rel)
	}
	var cols []int
	var vals []model.Datum
	for k, term := range atom.Args {
		if term.IsConst {
			cols = append(cols, k)
			vals = append(vals, term.Const)
		} else if term.Var != "_" {
			if v, bound := binding[term.Var]; bound {
				cols = append(cols, k)
				vals = append(vals, v)
			}
		}
	}
	if len(cols) == 0 {
		return t.Rows(), nil
	}
	if t.Len() > indexThreshold && !t.HasIndex(cols) {
		t.CreateIndex(cols)
	}
	return t.Probe(cols, vals), nil
}

// fire instantiates the heads under binding, inserts new facts, and
// invokes the derivation hook.
func (e *EngineLegacy) fire(r *Rule, binding Binding) error {
	e.Derivations++
	if e.Hook != nil {
		e.Hook(r, binding)
	}
	for _, h := range r.Heads {
		t, ok := e.DB.Table(h.Rel)
		if !ok {
			return fmt.Errorf("datalog: head predicate %q has no table", h.Rel)
		}
		row := make(model.Tuple, len(h.Args))
		for k, term := range h.Args {
			if term.IsConst {
				row[k] = term.Const
				continue
			}
			v, bound := binding[term.Var]
			if !bound {
				return fmt.Errorf("datalog: rule %s head variable %q unbound", r.ID, term.Var)
			}
			row[k] = v
		}
		inserted, err := t.Insert(row)
		if err != nil {
			return err
		}
		if inserted {
			e.next[h.Rel] = append(e.next[h.Rel], row)
		}
	}
	return nil
}

// matchAtom extends binding so that atom matches row, returning false
// (with binding possibly partially extended — callers pass a fresh map)
// on mismatch.
func matchAtom(atom model.Atom, row model.Tuple, binding Binding) bool {
	for k, t := range atom.Args {
		if t.IsConst {
			if !model.Equal(row[k], t.Const) {
				return false
			}
			continue
		}
		if t.Var == "_" {
			continue
		}
		if v, bound := binding[t.Var]; bound {
			if !model.Equal(v, row[k]) {
				return false
			}
			continue
		}
		binding[t.Var] = row[k]
	}
	return true
}
