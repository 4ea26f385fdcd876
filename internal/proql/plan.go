package proql

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/exchange"
	"repro/internal/model"
	"repro/internal/relstore"
)

// rulePlan is a ConjRule compiled to a physical plan. Intermediate
// rows are column-pruned after every join: only variables still needed
// by later joins or by the query's outputs (anchor keys, provenance
// terms, leaf contexts) are carried, keeping rows narrow through long
// join chains. varCols maps each surviving rule variable to its output
// column. The plan is built for one query, with its WHERE literals.
type rulePlan struct {
	rule    *ConjRule
	plan    relstore.Plan
	varCols map[string]int
}

// guarded returns plan, or a plan of no rows unless every guard — a
// WHERE conjunct comparing constants only — holds.
func guarded(plan relstore.Plan, guards []relstore.Expr) (relstore.Plan, error) {
	for _, guard := range guards {
		keep, err := evalPred(guard, nil)
		if err != nil {
			return nil, err
		}
		if !keep {
			return &relstore.Values{}, nil
		}
	}
	return plan, nil
}

// pruneSpec describes which variables the query consumes beyond the
// joins themselves, so dead columns can be projected away.
type pruneSpec struct {
	// evaluate is set for EVALUATE queries: leaf key variables are
	// needed to identify leaf tuples.
	evaluate bool
	// leafAttrs are the attribute names referenced by ASSIGNING EACH
	// leaf_node CASE conditions (statically known from the clause).
	leafAttrs map[string]bool
}

// pruneSpecFor derives the prune spec from a query.
func pruneSpecFor(q *Query) pruneSpec {
	spec := pruneSpec{evaluate: q.Evaluate != "", leafAttrs: map[string]bool{}}
	if q.LeafAssign != nil {
		for _, c := range q.LeafAssign.Cases {
			collectCondAttrs(c.Cond, spec.leafAttrs)
		}
	}
	return spec
}

func collectCondAttrs(c Cond, out map[string]bool) {
	switch cc := c.(type) {
	case CondCmp:
		if cc.L.Attr != "" {
			out[cc.L.Attr] = true
		}
		if cc.R.Attr != "" {
			out[cc.R.Attr] = true
		}
	case CondAnd:
		collectCondAttrs(cc.L, out)
		collectCondAttrs(cc.R, out)
	case CondOr:
		collectCondAttrs(cc.L, out)
		collectCondAttrs(cc.R, out)
	case CondNot:
		collectCondAttrs(cc.E, out)
	}
}

// externalVars computes the variables the query consumes from a rule's
// result rows: the anchor terms (bindings and WHERE), the provenance
// terms (derivation reconstruction), and — for EVALUATE queries — each
// leaf atom's key variables plus any attributes the leaf ASSIGNING
// clause inspects.
func externalVars(sys *exchange.System, rule *ConjRule, spec pruneSpec) map[string]bool {
	needed := make(map[string]bool)
	addTerm := func(t model.Term) {
		if !t.IsConst && t.Var != "_" {
			needed[t.Var] = true
		}
	}
	for _, t := range rule.Anchor.Args {
		addTerm(t)
	}
	for _, pv := range rule.Prov {
		for _, t := range pv.Terms {
			addTerm(t)
		}
	}
	if spec.evaluate {
		var walk func(n *ExprNode)
		walk = func(n *ExprNode) {
			if n.IsLeaf() {
				if rel, ok := sys.Schema.Relation(n.LeafRel); ok {
					for _, k := range rel.Key {
						addTerm(n.Leaf.Args[k])
					}
					for attr := range spec.leafAttrs {
						if idx := rel.ColumnIndex(attr); idx >= 0 {
							addTerm(n.Leaf.Args[idx])
						}
					}
				}
				return
			}
			for _, ch := range n.Children {
				walk(ch)
			}
		}
		walk(rule.Tree)
	}
	return needed
}

// planAtom is one body atom classified for planning.
type planAtom struct {
	atom model.Atom
	// table is the atom's backing table; nil for a virtual provenance
	// view, which is evaluated as an opaque plan and never probed.
	table *relstore.Table
	// constCols/constVals are the argument positions fixed to a
	// constant — by the rule itself or by a pushed anchor selection.
	constCols []int
	constVals []model.Datum
	// vars/varCols give the first occurrence of each distinct variable;
	// repeats pairs every later occurrence with the first.
	vars    []string
	varCols []int
	repeats [][2]int
}

func classifyAtom(sys *exchange.System, atom model.Atom, fixed map[string]model.Datum) planAtom {
	pa := planAtom{atom: atom, vars: make([]string, 0, len(atom.Args)), varCols: make([]int, 0, len(atom.Args))}
	pa.table, _ = sys.DB.Table(atom.Rel)
	for ai, t := range atom.Args {
		if t.IsConst {
			pa.constCols = append(pa.constCols, ai)
			pa.constVals = append(pa.constVals, t.Const)
			continue
		}
		if t.Var == "_" {
			continue
		}
		d, isFixed := fixed[t.Var]
		if isFixed {
			pa.constCols = append(pa.constCols, ai)
			pa.constVals = append(pa.constVals, d)
		}
		if j := slices.Index(pa.vars, t.Var); j < 0 {
			pa.vars = append(pa.vars, t.Var)
			pa.varCols = append(pa.varCols, ai)
		} else if !isFixed {
			pa.repeats = append(pa.repeats, [2]int{ai, pa.varCols[j]})
		}
	}
	return pa
}

// repeatPred is the equality of an atom's repeated variable occurrences
// over a row holding the atom's columns from position off on.
func (pa *planAtom) repeatPred(off int, skip []string) relstore.Expr {
	var preds []relstore.Expr
	for _, r := range pa.repeats {
		if !slices.Contains(skip, pa.atom.Args[r[0]].Var) {
			preds = append(preds, relstore.Cmp{Op: relstore.EQ, L: relstore.Col(off + r[0]), R: relstore.Col(off + r[1])})
		}
	}
	if preds == nil {
		return nil
	}
	return relstore.AndAll(preds)
}

// joinStep is one position of a rule's join order: the atom joined
// there and, when it is index-joined, the argument positions whose
// values are known by then and the access path over them.
// path.Kind == AccessScan means a hash join over the atom's own access
// plan.
type joinStep struct {
	atom  int
	bound []int
	path  relstore.AccessPath
}

// joinOrder orders a rule's body atoms from what the planner can
// observe without statistics — which terms are bound and which keys and
// indexes exist (a bound term is obviously selective) — never from the
// values of the constants. From a seed atom it greedily follows atoms sharing an
// already-bound variable, preferring one whose primary key or an
// existing index covers bound columns including a join column: that
// atom is index-joined, reading only the rows that join. Atoms with no
// such path (and views) are hash-joined.
//
// A rule with a constant is seeded by the atom with the best
// constant-restricted access path (primary key, then index, then
// filtered scan; more constants first). A rule with none is seeded by
// the first stored atom in body order from which the greedy places
// every other stored atom by a probe or, when no atom does, by the one
// that leaves the fewest stored atoms to hash joins.
func joinOrder(atoms []planAtom, fixed map[string]model.Datum) []joinStep {
	seed, seedKind := -1, relstore.AccessScan
	for i := range atoms {
		a := &atoms[i]
		if len(a.constCols) == 0 {
			continue
		}
		kind := relstore.AccessScan
		if a.table != nil {
			kind = a.table.ChooseAccess(a.constCols).Kind
		}
		if seed < 0 || kind > seedKind || kind == seedKind && len(a.constCols) > len(atoms[seed].constCols) {
			seed, seedKind = i, kind
		}
	}
	if seed >= 0 {
		steps, _ := placeFrom(atoms, fixed, seed, len(atoms))
		return steps
	}
	var best []joinStep
	fewest := len(atoms)
	for i := range atoms {
		if atoms[i].table == nil {
			continue
		}
		if steps, hashed := placeFrom(atoms, fixed, i, fewest); steps != nil {
			best, fewest = steps, hashed
			if hashed == 0 {
				break
			}
		}
	}
	if best == nil { // no stored atom
		best, _ = placeFrom(atoms, fixed, 0, len(atoms))
	}
	return best
}

// placeFrom runs the greedy of joinOrder from the seed atom and counts
// the stored atoms it leaves to hash joins. It gives up, returning nil,
// as soon as that count reaches limit.
func placeFrom(atoms []planAtom, fixed map[string]model.Datum, seed, limit int) ([]joinStep, int) {
	steps := make([]joinStep, 0, len(atoms))
	placed := make([]bool, len(atoms))
	have := make(map[string]bool)
	place := func(st joinStep) {
		for _, v := range atoms[st.atom].vars {
			have[v] = true
		}
		steps = append(steps, st)
		placed[st.atom] = true
	}
	hashed := 0
	place(joinStep{atom: seed})
	for len(steps) < len(atoms) {
		next := joinStep{atom: -1}
		connected, unplaced := -1, -1
		for i := range atoms {
			if placed[i] {
				continue
			}
			if unplaced < 0 {
				unplaced = i
			}
			a := &atoms[i]
			var bound []int
			joins := false
			for ai, t := range a.atom.Args {
				if _, isFixed := fixed[t.Var]; t.IsConst || isFixed {
					bound = append(bound, ai)
				} else if have[t.Var] { // never for "_"
					bound = append(bound, ai)
					joins = true
				}
			}
			if !joins {
				continue
			}
			if connected < 0 {
				connected = i
			}
			if a.table == nil {
				continue
			}
			path := a.table.ChooseAccess(bound)
			probesJoinCol := false
			for _, p := range path.Probe {
				t := a.atom.Args[bound[p]]
				if _, isFixed := fixed[t.Var]; !t.IsConst && !isFixed {
					probesJoinCol = true
				}
			}
			// A probe keyed on constants alone fetches the same rows
			// for every left row: a hash join reads them once.
			if path.Kind != relstore.AccessScan && probesJoinCol {
				next = joinStep{atom: i, bound: bound, path: path}
				break
			}
		}
		switch {
		case next.atom >= 0:
		case connected >= 0:
			next.atom = connected
		default:
			next.atom = unplaced
		}
		if next.path.Kind == relstore.AccessScan && atoms[next.atom].table != nil {
			if hashed++; hashed >= limit {
				return nil, hashed
			}
		}
		place(next)
	}
	return steps, hashed
}

// buildRulePlan compiles a conjunctive rule to a left-deep join plan
// with per-step column pruning. The anchor WHERE condition (already
// verified to reference only the anchor variable) is pushed into the
// rule: attr = literal conjuncts fix their variable to a constant in
// every body atom, conjuncts over constants only become the rule's
// guards, and the remaining conjuncts become Filters at the first step
// that binds their variables. Constants then drive each atom's access
// path and the join order and method (joinOrder).
//
// A primary-key probe whose atom binds no variable live after its step
// (and has no repeated variable to compare) is a semi-join: at most one
// row matches and none of its columns is needed, so the step emits the
// left row itself.
func buildRulePlan(sys *exchange.System, rule *ConjRule, where Cond, anchorVar string, spec pruneSpec) (*rulePlan, error) {
	if len(rule.Body) == 0 {
		return nil, fmt.Errorf("proql: empty rule body")
	}
	sel, err := splitWhere(sys, where, rule, anchorVar)
	if err != nil {
		return nil, err
	}
	atoms := make([]planAtom, len(rule.Body))
	for i, atom := range rule.Body {
		atoms[i] = classifyAtom(sys, atom, sel.fixed)
	}
	steps := joinOrder(atoms, sel.fixed)
	// Past the last step that mentions it, a variable is carried only if
	// the query consumes it.
	lastUse := make(map[string]int)
	for p, st := range steps {
		for _, v := range atoms[st.atom].vars {
			lastUse[v] = p
		}
	}
	for v := range externalVars(sys, rule, spec) {
		lastUse[v] = len(steps)
	}

	var plan relstore.Plan
	var cols []string // variable name per current output column ("" = dead)
	pending := sel.residual
	for p, st := range steps {
		a := &atoms[st.atom]
		if plan != nil && st.path.Kind != relstore.AccessScan {
			keys := make([]relstore.Expr, len(st.bound))
			for i, ai := range st.bound {
				t := a.atom.Args[ai]
				if d, isFixed := sel.fixed[t.Var]; isFixed {
					t = model.C(d)
				}
				if t.IsConst {
					keys[i] = relstore.Lit{Val: t.Const}
				} else {
					keys[i] = relstore.Col(slices.Index(cols, t.Var))
				}
			}
			width := len(a.atom.Args)
			join := &relstore.IndexJoin{
				Left:  plan,
				Table: a.atom.Rel,
				Width: width,
				Cols:  st.bound,
				Keys:  keys,
				Path:  st.path,
			}
			plan = join
			// Occurrences of left-bound variables are all probe or
			// residual columns; only free repeats need checking.
			pred := a.repeatPred(len(cols), cols)
			if st.path.Kind == relstore.AccessPK && pred == nil && !bindsLive(a, cols, lastUse, p) {
				join.Semi = true
			} else {
				if pred != nil {
					plan = &relstore.Filter{Input: plan, Pred: pred}
				}
				names := make([]string, width)
				for i, v := range a.vars {
					names[a.varCols[i]] = v
				}
				cols = append(cols, names...)
			}
		} else {
			ap, err := atomAccessPlan(sys, a)
			if err != nil {
				return nil, err
			}
			if pred := a.repeatPred(0, nil); pred != nil {
				ap = &relstore.Filter{Input: ap, Pred: pred}
			}
			// Narrow the atom to one column per distinct variable.
			if !isIdentity(a.varCols, len(a.atom.Args)) {
				ap = relstore.ProjectCols(ap, a.varCols...)
			}
			if plan == nil {
				plan = ap
				cols = a.vars
			} else {
				var leftKeys, rightKeys []int
				for li, v := range a.vars {
					if j := slices.Index(cols, v); j >= 0 {
						leftKeys = append(leftKeys, j)
						rightKeys = append(rightKeys, li)
					}
				}
				plan = &relstore.HashJoin{
					Left:      plan,
					Right:     ap,
					LeftKeys:  leftKeys,
					RightKeys: rightKeys,
				}
				cols = append(cols, a.vars...)
			}
		}
		// Prune columns dead from here on.
		keepCols := make([]int, 0, len(cols))
		keepVars := make([]string, 0, len(cols))
		for ci, v := range cols {
			if v == "" || slices.Contains(cols[:ci], v) {
				continue
			}
			if lastUse[v] > p {
				keepCols = append(keepCols, ci)
				keepVars = append(keepVars, v)
			}
		}
		if len(keepCols) < len(cols) {
			plan = relstore.ProjectCols(plan, keepCols...)
			cols = keepVars
		}
		// Apply the WHERE conjuncts whose variables are now all bound
		// (anchor variables are external, so pruning kept them).
		rest := pending[:0:0]
		for _, rc := range pending {
			at := make(map[string]int, len(rc.vars))
			for _, v := range rc.vars {
				if ci := slices.Index(cols, v); ci >= 0 {
					at[v] = ci
				} else {
					at = nil
					break
				}
			}
			if at == nil {
				rest = append(rest, rc)
				continue
			}
			pred, err := condToExpr(sys, rc.cond, rule, at, anchorVar)
			if err != nil {
				return nil, err
			}
			plan = &relstore.Filter{Input: plan, Pred: pred}
		}
		pending = rest
	}
	if len(pending) > 0 {
		return nil, fmt.Errorf("proql: WHERE references a variable not bound by the rule body")
	}
	plan, err = guarded(plan, sel.guards)
	if err != nil {
		return nil, err
	}
	rp := &rulePlan{rule: rule, plan: plan}
	rp.varCols = make(map[string]int, len(cols))
	for ci, v := range cols {
		rp.varCols[v] = ci
	}
	return rp, nil
}

// bindsLive reports whether atom a, joined at step p onto a row whose
// columns hold cols, binds a variable that is still used after p.
func bindsLive(a *planAtom, cols []string, lastUse map[string]int, p int) bool {
	for _, v := range a.vars {
		if lastUse[v] > p && !slices.Contains(cols, v) {
			return true
		}
	}
	return false
}

// isIdentity reports whether cols selects all width columns in order.
func isIdentity(cols []int, width int) bool {
	if len(cols) != width {
		return false
	}
	for i, c := range cols {
		if c != i {
			return false
		}
	}
	return true
}

// atomAccessPlan produces the access path for one body atom with its
// constant-column restrictions applied. A stored table is read along
// the path relstore.Select chooses (primary-key lookup, index probe or
// scan, with residual filters); superfluous provenance relations are
// projection views, filtered on top.
func atomAccessPlan(sys *exchange.System, pa *planAtom) (relstore.Plan, error) {
	if pa.table != nil {
		return relstore.Select(pa.table, pa.constCols, pa.constVals), nil
	}
	ap, err := viewPlan(sys, pa.atom)
	if err != nil {
		return nil, err
	}
	if len(pa.constCols) == 0 {
		return ap, nil
	}
	preds := make([]relstore.Expr, len(pa.constCols))
	for i, c := range pa.constCols {
		preds[i] = relstore.Cmp{Op: relstore.EQ, L: relstore.Col(c), R: relstore.Lit{Val: pa.constVals[i]}}
	}
	return &relstore.Filter{Input: ap, Pred: relstore.AndAll(preds)}, nil
}

// viewPlan produces the plan of a body atom with no table of its own: a
// projection view for a superfluous provenance relation.
func viewPlan(sys *exchange.System, atom model.Atom) (relstore.Plan, error) {
	// Virtual provenance relation: P_<mapping> with no backing table.
	if len(atom.Rel) > len(exchange.ProvTablePrefix) && atom.Rel[:len(exchange.ProvTablePrefix)] == exchange.ProvTablePrefix {
		mapping := atom.Rel[len(exchange.ProvTablePrefix):]
		pr, ok := sys.Prov[mapping]
		if ok && pr.Virtual {
			return virtualProvPlan(sys, pr)
		}
	}
	return nil, fmt.Errorf("proql: no table or view for atom %s", atom.Rel)
}

// virtualProvPlan reconstructs a superfluous provenance relation as a
// view over its single source relation (Section 4.1): filter the source
// by the mapping body's constants and repeated variables, then project
// the provenance attributes.
func virtualProvPlan(sys *exchange.System, pr *exchange.ProvRel) (relstore.Plan, error) {
	body := pr.Mapping.Body[0]
	t, ok := sys.DB.Table(body.Rel)
	if !ok {
		return nil, fmt.Errorf("proql: missing source table %q for virtual provenance of %s", body.Rel, pr.Mapping.Name)
	}
	var plan relstore.Plan = &relstore.Scan{Table: body.Rel, Width: len(t.Schema.Columns)}
	var preds []relstore.Expr
	first := make(map[string]int)
	for i, term := range body.Args {
		switch {
		case term.IsConst:
			preds = append(preds, relstore.Cmp{Op: relstore.EQ, L: relstore.Col(i), R: relstore.Lit{Val: term.Const}})
		case term.Var == "_":
		default:
			if j, seen := first[term.Var]; seen {
				preds = append(preds, relstore.Cmp{Op: relstore.EQ, L: relstore.Col(i), R: relstore.Col(j)})
			} else {
				first[term.Var] = i
			}
		}
	}
	if len(preds) > 0 {
		plan = &relstore.Filter{Input: plan, Pred: relstore.AndAll(preds)}
	}
	cols := make([]int, len(pr.Vars))
	for i, v := range pr.Vars {
		j, ok := first[v]
		if !ok {
			return nil, fmt.Errorf("proql: provenance var %q of %s not in source atom", v, pr.Mapping.Name)
		}
		cols[i] = j
	}
	return relstore.ProjectCols(plan, cols...), nil
}

// condToExpr compiles a WHERE condition over the anchor variable into a
// relstore predicate over the rule's output row, resolving $x.attr
// through the anchor atom's terms.
func condToExpr(sys *exchange.System, c Cond, rule *ConjRule, varCols map[string]int, anchorVar string) (relstore.Expr, error) {
	switch cc := c.(type) {
	case CondCmp:
		l, err := operandExpr(sys, cc.L, rule, varCols, anchorVar)
		if err != nil {
			return nil, err
		}
		r, err := operandExpr(sys, cc.R, rule, varCols, anchorVar)
		if err != nil {
			return nil, err
		}
		var op relstore.CmpOp
		switch cc.Op {
		case "=":
			op = relstore.EQ
		case "!=":
			op = relstore.NE
		case "<":
			op = relstore.LT
		case "<=":
			op = relstore.LE
		case ">":
			op = relstore.GT
		case ">=":
			op = relstore.GE
		default:
			return nil, fmt.Errorf("proql: unknown operator %q", cc.Op)
		}
		return relstore.Cmp{Op: op, L: l, R: r}, nil
	case CondIn:
		// Anchor membership: statically true or false.
		return relstore.Lit{Val: cc.Rel == rule.Anchor.Rel}, nil
	case CondAnd:
		l, err := condToExpr(sys, cc.L, rule, varCols, anchorVar)
		if err != nil {
			return nil, err
		}
		r, err := condToExpr(sys, cc.R, rule, varCols, anchorVar)
		if err != nil {
			return nil, err
		}
		return relstore.And{L: l, R: r}, nil
	case CondOr:
		l, err := condToExpr(sys, cc.L, rule, varCols, anchorVar)
		if err != nil {
			return nil, err
		}
		r, err := condToExpr(sys, cc.R, rule, varCols, anchorVar)
		if err != nil {
			return nil, err
		}
		return relstore.Or{L: l, R: r}, nil
	case CondNot:
		e, err := condToExpr(sys, cc.E, rule, varCols, anchorVar)
		if err != nil {
			return nil, err
		}
		return relstore.Not{E: e}, nil
	}
	return nil, fmt.Errorf("proql: unsupported WHERE condition for relational backend")
}

func operandExpr(sys *exchange.System, o CmpOperand, rule *ConjRule, varCols map[string]int, anchorVar string) (relstore.Expr, error) {
	if o.Var == "" {
		return relstore.Lit{Val: o.Lit}, nil
	}
	t, _, err := anchorTerm(o, rule, anchorVar, sys)
	if err != nil {
		return nil, err
	}
	return termExpr(t, varCols)
}

// anchorTerm resolves the attribute access $x.attr to the rule's anchor
// term at that attribute, and the attribute's declared type.
func anchorTerm(o CmpOperand, rule *ConjRule, anchorVar string, sys *exchange.System) (model.Term, model.DatumType, error) {
	if o.Var != anchorVar {
		return model.Term{}, 0, fmt.Errorf("proql: WHERE references non-anchor variable $%s", o.Var)
	}
	if o.Attr == "" {
		return model.Term{}, 0, fmt.Errorf("proql: bare $%s cannot be compared; use $%s.<attr>", o.Var, o.Var)
	}
	rel, ok := sys.Schema.Relation(rule.Anchor.Rel)
	if !ok {
		return model.Term{}, 0, fmt.Errorf("proql: unknown anchor relation %q", rule.Anchor.Rel)
	}
	idx := rel.ColumnIndex(o.Attr)
	if idx < 0 {
		return model.Term{}, 0, fmt.Errorf("proql: relation %s has no attribute %q", rel.Name, o.Attr)
	}
	return rule.Anchor.Args[idx], rel.Columns[idx].Type, nil
}

// anchorSelection is the anchor WHERE condition split into top-level
// conjuncts and sorted by what the planner can do with each.
type anchorSelection struct {
	// guards are the conjuncts that compare constants only (literals,
	// constant anchor terms, IN): the rule contributes nothing unless
	// every one holds.
	guards []relstore.Expr
	// fixed maps each anchor variable pinned by an attr = literal
	// conjunct to its constant.
	fixed map[string]model.Datum
	// residual conjuncts are evaluated as Filters once their variables
	// are bound.
	residual []residualCond
}

type residualCond struct {
	cond Cond
	vars []string // rule variables the condition reads
}

// splitWhere splits the anchor WHERE condition of one rule. Every
// conjunct is validated, whatever the others decide.
func splitWhere(sys *exchange.System, where Cond, rule *ConjRule, anchorVar string) (*anchorSelection, error) {
	sel := &anchorSelection{fixed: map[string]model.Datum{}}
	if where == nil {
		return sel, nil
	}
	for _, c := range splitConjuncts(where) {
		vars, err := anchorCondVars(c, rule, anchorVar, sys)
		if err != nil {
			return nil, err
		}
		if len(vars) == 0 {
			pred, err := condToExpr(sys, c, rule, nil, anchorVar)
			if err != nil {
				return nil, err
			}
			sel.guards = append(sel.guards, pred)
			continue
		}
		if v, d, ok := pushableEq(sys, c, rule, anchorVar); ok {
			if _, dup := sel.fixed[v]; !dup {
				sel.fixed[v] = d
				continue
			}
		}
		sel.residual = append(sel.residual, residualCond{cond: c, vars: vars})
	}
	return sel, nil
}

// anchorCondVars returns the rule variables a WHERE condition reads,
// validating its attribute accesses on the way.
func anchorCondVars(c Cond, rule *ConjRule, anchorVar string, sys *exchange.System) ([]string, error) {
	both := func(l, r Cond) ([]string, error) {
		lv, err := anchorCondVars(l, rule, anchorVar, sys)
		if err != nil {
			return nil, err
		}
		rv, err := anchorCondVars(r, rule, anchorVar, sys)
		return append(lv, rv...), err
	}
	switch cc := c.(type) {
	case CondCmp:
		var vars []string
		for _, o := range []CmpOperand{cc.L, cc.R} {
			if o.Var == "" {
				continue
			}
			t, _, err := anchorTerm(o, rule, anchorVar, sys)
			if err != nil {
				return nil, err
			}
			if !t.IsConst {
				vars = append(vars, t.Var)
			}
		}
		return vars, nil
	case CondIn:
		return nil, nil
	case CondAnd:
		return both(cc.L, cc.R)
	case CondOr:
		return both(cc.L, cc.R)
	case CondNot:
		return anchorCondVars(cc.E, rule, anchorVar, sys)
	}
	return nil, fmt.Errorf("proql: unsupported WHERE condition for relational backend")
}

// pushableEq recognizes a conjunct $x.attr = literal (either way round)
// that can be pushed into the rule as a constant for the anchor
// variable at attr; probeLiteral decides which literals qualify.
func pushableEq(sys *exchange.System, c Cond, rule *ConjRule, anchorVar string) (string, model.Datum, bool) {
	attr, lit, ok := eqLiteral(c)
	if !ok {
		return "", nil, false
	}
	t, typ, err := anchorTerm(attr, rule, anchorVar, sys)
	if err != nil || t.IsConst {
		return "", nil, false
	}
	d, ok := probeLiteral(lit, typ)
	return t.Var, d, ok
}

// eqLiteral recognizes a conjunct $x.attr = literal, either way round.
func eqLiteral(c Cond) (attr CmpOperand, lit model.Datum, ok bool) {
	cmp, isCmp := c.(CondCmp)
	if !isCmp || cmp.Op != "=" {
		return CmpOperand{}, nil, false
	}
	l, r := cmp.L, cmp.R
	if l.Var == "" {
		l, r = r, l
	}
	if l.Var == "" || r.Var != "" {
		return CmpOperand{}, nil, false
	}
	return l, r.Lit, true
}

// probeLiteral is the one rule by which an equality with a literal may
// become an access path — a constant in an unfolded rule (relational
// backend) or a key-pinned path start (path backend) — and
// returns the datum to probe with. Key and index probes compare
// canonical encodings, while the Filter such a probe stands in for
// compares with coercion (relstore.Cmp, compareDatums: int64 and float64
// of equal value are equal); the two agree only when the literal has the
// attribute's declared type. Such literals qualify, an integral float
// against an integer attribute qualifies as that integer, and everything
// else (NULL, other mixed types, float zero — 0.0 and -0.0 are equal
// but encode differently) stays with the Filter.
func probeLiteral(lit model.Datum, typ model.DatumType) (model.Datum, bool) {
	switch v := lit.(type) {
	case int64:
		return lit, typ == model.TypeInt
	case string:
		return lit, typ == model.TypeString
	case bool:
		return lit, typ == model.TypeBool
	case float64:
		if typ == model.TypeFloat {
			return lit, v != 0
		}
		// Below 2^53 every integer is its own float64, so no other
		// integer coerces to v.
		if typ == model.TypeInt && v == math.Trunc(v) && math.Abs(v) < 1<<53 {
			return int64(v), true
		}
	}
	return nil, false
}

// termExpr resolves a rule term to a column reference or literal.
func termExpr(t model.Term, varCols map[string]int) (relstore.Expr, error) {
	if t.IsConst {
		return relstore.Lit{Val: t.Const}, nil
	}
	col, ok := varCols[t.Var]
	if !ok {
		return nil, fmt.Errorf("proql: variable %q not bound by rule body", t.Var)
	}
	return relstore.Col(col), nil
}

// termValue resolves a rule term against a result row.
func termValue(t model.Term, varCols map[string]int, row model.Tuple) (model.Datum, error) {
	if t.IsConst {
		return t.Const, nil
	}
	col, ok := varCols[t.Var]
	if !ok {
		return nil, fmt.Errorf("proql: variable %q not bound by rule body", t.Var)
	}
	return row[col], nil
}
