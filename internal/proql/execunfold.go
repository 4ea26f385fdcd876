package proql

import (
	"fmt"
	"time"

	"repro/internal/exchange"
	"repro/internal/model"
	"repro/internal/proql/physplan"
	"repro/internal/provgraph"
	"repro/internal/relstore"
	"repro/internal/semiring"
)

// unfoldOutput collects the relational backend's projected
// derivations as provenance rows per mapping, each once — the paper's
// "output tables", from which Result.Graph links the graph lazily.
type unfoldOutput map[string]map[string]model.Tuple // mapping → encoded row → row

func (o unfoldOutput) addProvRow(mapping string, row model.Tuple) {
	m, ok := o[mapping]
	if !ok {
		m = make(map[string]model.Tuple)
		o[mapping] = m
	}
	enc := model.EncodeDatums(row)
	if _, dup := m[enc]; !dup {
		m[enc] = row
	}
}

// derivs yields the collected derivations for linking.
func (o unfoldOutput) derivs(yield func(physplan.ProjDeriv) bool) {
	for mapping, rows := range o {
		for _, row := range rows {
			if !yield(physplan.ProjDeriv{Mapping: mapping, Row: row}) {
				return
			}
		}
	}
}

// unfoldPlans is the relational backend's plan of one query: the
// unfolded rules, each with its physical plan (after ASR rewriting, if
// enabled), and for a single-node FOR clause the read of the anchor
// relation's tuples satisfying WHERE.
type unfoldPlans struct {
	comp   *Compiled
	rules  []*rulePlan
	anchor relstore.Plan // nil unless the FOR clause is a single node
}

// planUnfold unfolds q against sys (CompileUnfold) and plans every
// unfolded rule with q's WHERE literals.
func (e *Engine) planUnfold(sys *exchange.System, q *Query) (*unfoldPlans, error) {
	comp, err := CompileUnfold(sys, q)
	if err != nil {
		return nil, err
	}
	rules := comp.Rules
	if e.RewriteRules != nil {
		rules = e.RewriteRules(rules)
	}
	where := q.Projection.Where
	spec := pruneSpecFor(q)
	up := &unfoldPlans{comp: comp, rules: make([]*rulePlan, 0, len(rules))}
	for _, r := range rules {
		rp, err := buildRulePlan(sys, r, where, comp.AnchorVar, spec)
		if err != nil {
			return nil, err
		}
		up.rules = append(up.rules, rp)
	}
	if len(q.Projection.For[0].Edges) == 0 {
		if up.anchor, err = anchorPlan(sys, comp, where); err != nil {
			return nil, err
		}
	}
	return up, nil
}

// execUnfold runs a query on the relational backend: it pins a storage
// snapshot, unfolds and plans the query against it, and evaluates.
// Reading through the pinned snapshot keeps a concurrent exchange
// commit (RunDelta, DeleteLocal) from leaking half of its writes into
// one query's result. With asOf != 0 the snapshot pins that retained
// historical epoch instead of the live one.
func (e *Engine) execUnfold(q *Query, asOf uint64) (*Result, error) {
	sys, release, err := e.snapshotAt(asOf)
	if err != nil {
		return nil, err
	}
	defer release()
	unfoldStart := time.Now()
	up, err := e.planUnfold(sys, q)
	if err != nil {
		return nil, err
	}
	unfoldTime := time.Since(unfoldStart)
	res, err := e.runUnfold(sys, q, asOf, up)
	if err != nil {
		return nil, err
	}
	res.Stats.UnfoldTime = unfoldTime
	return res, nil
}

// runUnfold evaluates the plans of a compiled query: it runs one plan
// per unfolded conjunctive rule, in rule order, and folds each row
// into the bindings and, under EVALUATE, into the semiring annotation of
// its distinguished tuple (evalTreeRow, accumulate) — the UNION and
// GROUP BY aggregation of Section 4.2.4, done in Go.
func (e *Engine) runUnfold(sys *exchange.System, q *Query, asOf uint64, up *unfoldPlans) (*Result, error) {
	comp := up.comp
	out := make(unfoldOutput)
	res := &Result{Stats: Stats{Backend: "relational", AsOf: asOf, Epoch: sys.DB.Epoch(), UnfoldedRules: len(comp.Rules)}}
	res.buildGraph = func() (*provgraph.Graph, error) { return e.linkAt(asOf, out.derivs, res.rows.refs) }

	var s semiring.Semiring
	var mapFuncs map[string]semiring.MappingFunc
	if q.Evaluate != "" {
		var err error
		s, err = semiring.Lookup(q.Evaluate)
		if err != nil {
			return nil, err
		}
		res.Semiring = s
		res.Annotations = make(map[model.TupleRef]semiring.Value)
		var names []string
		for _, m := range e.Sys.Schema.Mappings() {
			names = append(names, m.Name)
		}
		mapFuncs, err = buildMapFuncs(s, q.MapAssign, names)
		if err != nil {
			return nil, err
		}
	}

	evalStart := time.Now()
	anchorRel, ok := sys.Schema.Relation(comp.AnchorRel)
	if !ok {
		return nil, fmt.Errorf("proql: unknown anchor relation %q", comp.AnchorRel)
	}
	singleNode := up.anchor != nil
	includeGraph := len(q.Projection.Include) > 0
	res.rows.vars = q.Projection.Return // exactly the anchor variable
	anchors := make(map[model.TupleRef]struct{})
	addBinding := func(ref model.TupleRef) {
		if _, seen := anchors[ref]; !seen {
			anchors[ref] = struct{}{}
			res.rows.addRow(res.rows.addRef(ref))
		}
	}

	// run passes every row of plan to fold, polling the cancel func
	// before the run and after every row. Its callback is built once
	// for all the runs of the query.
	var (
		fold    func(model.Tuple) error
		foldErr error
	)
	yield := func(row model.Tuple) bool {
		if foldErr = fold(row); foldErr == nil && q.Cancel != nil {
			foldErr = q.Cancel()
		}
		return foldErr == nil
	}
	run := func(plan relstore.Plan, f func(model.Tuple) error) error {
		if q.Cancel != nil {
			if err := q.Cancel(); err != nil {
				return err
			}
		}
		fold = f
		if err := relstore.Each(plan, sys.DB, yield); err != nil {
			return err
		}
		return foldErr
	}

	// Single-node FOR clauses bind every tuple of the anchor relation
	// (subject to WHERE), independent of derivations.
	if singleNode {
		if err := run(up.anchor, func(row model.Tuple) error {
			ref := model.NewTupleRef(anchorRel, row)
			addBinding(ref)
			if s == nil || includeGraph {
				return nil
			}
			// With no INCLUDE PATH the projected subgraph is just the
			// node itself: it has no incoming derivations, so it is its
			// own leaf (Section 3.2.2's leaf rule).
			v, err := evalLeafAssign(s, q.LeafAssign, leafContextForRow(anchorRel, row, ref))
			if err != nil {
				return err
			}
			accumulate(res.Annotations, s, ref, v)
			return nil
		}); err != nil {
			return nil, err
		}
	}

	// The unfolded rules are the branches of a UNION ALL: evaluate them
	// one after another, in rule order, so bindings and annotations
	// stay deterministic (semiring ⊕ is commutative, but determinism
	// keeps output ordering and tests stable).
	var rp *rulePlan
	foldRule := func(row model.Tuple) error {
		ref, err := anchorRefOf(rp, anchorRel, row)
		if err != nil {
			return err
		}
		addBinding(ref)
		if includeGraph {
			if err := collectRowDerivations(out, rp, row); err != nil {
				return err
			}
		}
		if s != nil && (includeGraph || !singleNode) {
			v, err := e.evalTreeRow(s, q.LeafAssign, mapFuncs, rp, rp.rule.Tree, row)
			if err != nil {
				return err
			}
			accumulate(res.Annotations, s, ref, v)
		}
		return nil
	}
	for _, rp = range up.rules {
		if err := run(rp.plan, foldRule); err != nil {
			return nil, err
		}
	}
	res.rows.sort()
	res.Stats.EvalTime = time.Since(evalStart)
	return res, nil
}

// anchorPlan plans the read of the anchor relation's tuples satisfying
// the WHERE, along the same pushed-down access path the rule plans use:
// a WHERE that pins the key is one lookup, not a scan.
func anchorPlan(sys *exchange.System, comp *Compiled, where Cond) (relstore.Plan, error) {
	t, ok := sys.DB.Table(comp.AnchorRel)
	if !ok {
		return nil, fmt.Errorf("proql: missing table %q", comp.AnchorRel)
	}
	// The shared anchor atom's terms are distinct fresh variables, one
	// per column.
	pseudo := &ConjRule{Anchor: comp.AnchorAtom}
	sel, err := splitWhere(sys, where, pseudo, comp.AnchorVar)
	if err != nil {
		return nil, err
	}
	varCols := make(map[string]int, len(comp.AnchorAtom.Args))
	var cols []int
	var vals []model.Datum
	for i, term := range comp.AnchorAtom.Args {
		varCols[term.Var] = i
		if d, isFixed := sel.fixed[term.Var]; isFixed {
			cols = append(cols, i)
			vals = append(vals, d)
		}
	}
	plan := relstore.Select(t, cols, vals)
	for _, rc := range sel.residual {
		pred, err := condToExpr(sys, rc.cond, pseudo, varCols, comp.AnchorVar)
		if err != nil {
			return nil, err
		}
		plan = &relstore.Filter{Input: plan, Pred: pred}
	}
	return guarded(plan, sel.guards)
}

func evalPred(pred relstore.Expr, row model.Tuple) (bool, error) {
	v, err := pred.Eval(row)
	if err != nil {
		return false, err
	}
	b, ok := v.(bool)
	if !ok {
		return false, fmt.Errorf("proql: WHERE predicate produced non-boolean %T", v)
	}
	return b, nil
}

// anchorRefOf extracts the distinguished tuple's ref from one result
// row.
func anchorRefOf(rp *rulePlan, rel *model.Relation, row model.Tuple) (model.TupleRef, error) {
	key := make([]model.Datum, 0, len(rel.Key))
	for _, k := range rel.Key {
		v, err := termValue(rp.rule.Anchor.Args[k], rp.varCols, row)
		if err != nil {
			return model.TupleRef{}, err
		}
		key = append(key, v)
	}
	return model.RefFromKey(rel.Name, key), nil
}

// collectRowDerivations records the derivation rows witnessed by one
// result row (the INCLUDE PATH output).
func collectRowDerivations(out unfoldOutput, rp *rulePlan, row model.Tuple) error {
	for _, pv := range rp.rule.Prov {
		prow := make(model.Tuple, len(pv.Terms))
		for i, t := range pv.Terms {
			v, err := termValue(t, rp.varCols, row)
			if err != nil {
				return err
			}
			prow[i] = v
		}
		out.addProvRow(pv.Mapping, prow)
	}
	return nil
}

// evalTreeRow evaluates the derivation-tree semiring expression of one
// rule for one result row.
func (e *Engine) evalTreeRow(
	s semiring.Semiring,
	leafClause *AssignClause,
	mapFuncs map[string]semiring.MappingFunc,
	rp *rulePlan,
	n *ExprNode,
	row model.Tuple,
) (semiring.Value, error) {
	if n.IsLeaf() {
		if leafClause != nil && len(leafClause.Cases) == 0 && leafClause.Default != nil {
			// Every leaf takes the DEFAULT: no context to build.
			return convertAssignValue(s, leafClause.Default.Lit)
		}
		ctx, err := e.leafContextFor(rp, n, row)
		if err != nil {
			return nil, err
		}
		return evalLeafAssign(s, leafClause, ctx)
	}
	prod := s.One()
	for _, ch := range n.Children {
		v, err := e.evalTreeRow(s, leafClause, mapFuncs, rp, ch, row)
		if err != nil {
			return nil, err
		}
		prod = s.Times(prod, v)
	}
	f, ok := mapFuncs[n.Mapping]
	if !ok {
		f = semiring.Identity
	}
	return f(prod), nil
}

// leafContextFor builds the CASE-evaluation context of a leaf node for
// one result row.
func (e *Engine) leafContextFor(rp *rulePlan, n *ExprNode, row model.Tuple) (leafContext, error) {
	rel, ok := e.Sys.Schema.Relation(n.LeafRel)
	if !ok {
		return leafContext{}, fmt.Errorf("proql: unknown leaf relation %q", n.LeafRel)
	}
	key := make([]model.Datum, 0, len(rel.Key))
	for _, k := range rel.Key {
		v, err := termValue(n.Leaf.Args[k], rp.varCols, row)
		if err != nil {
			return leafContext{}, err
		}
		key = append(key, v)
	}
	ref := model.RefFromKey(rel.Name, key)
	return leafContext{
		Rel: rel.Name,
		Ref: ref,
		Attr: func(name string) (model.Datum, error) {
			idx := rel.ColumnIndex(name)
			if idx < 0 {
				return nil, fmt.Errorf("proql: relation %s has no attribute %q", rel.Name, name)
			}
			return termValue(n.Leaf.Args[idx], rp.varCols, row)
		},
	}, nil
}

// leafContextForRow builds a leaf context directly from a stored row
// (used when the anchor node itself is the leaf).
func leafContextForRow(rel *model.Relation, row model.Tuple, ref model.TupleRef) leafContext {
	return leafContext{
		Rel: rel.Name,
		Ref: ref,
		Attr: func(name string) (model.Datum, error) {
			idx := rel.ColumnIndex(name)
			if idx < 0 {
				return nil, fmt.Errorf("proql: relation %s has no attribute %q", rel.Name, name)
			}
			if row == nil {
				return nil, fmt.Errorf("proql: no stored row for %v", ref)
			}
			return row[idx], nil
		},
	}
}

func accumulate(ann map[model.TupleRef]semiring.Value, s semiring.Semiring, ref model.TupleRef, v semiring.Value) {
	if prev, ok := ann[ref]; ok {
		ann[ref] = s.Plus(prev, v)
	} else {
		ann[ref] = s.Plus(s.Zero(), v)
	}
}
