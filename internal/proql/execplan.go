package proql

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/model"
	"repro/internal/proql/physplan"
	"repro/internal/provgraph"
)

// execPhys evaluates a query through the physical-plan pipeline (path
// scans, index-nested-loop extensions, hash joins on shared variables,
// pushed-down filters, dedup, subgraph projection) over a path view.
// The projected subgraph is recorded, not linked: Result.Graph links it
// on first call. EVALUATE computes its annotations over the recording
// while the view is still bound (annotatePath).
func (e *Engine) execPhys(q *Query, g *pathView, asOf uint64) (*Result, error) {
	planStart := time.Now()
	proj := &physplan.Projection{}
	res := &Result{Stats: Stats{Backend: "path", AsOf: asOf, Epoch: g.epoch}}
	spec, err := e.lowerSpec(g, q, proj)
	if err != nil {
		return nil, err
	}
	plan, err := physplan.Compile(g, spec)
	if err != nil {
		return nil, err
	}
	res.Stats.PlanTime = time.Since(planStart)

	evalStart := time.Now()
	returned, err := collectPhys(q, plan, &res.rows)
	if err != nil {
		return nil, err
	}
	if err := g.Err(); err != nil {
		return nil, err
	}
	if q.Evaluate != "" {
		if res.Semiring, res.Annotations, err = e.annotatePath(q, g, proj, res.rows.refs, returned); err != nil {
			return nil, err
		}
	}
	res.rows.sort()
	res.buildGraph = func() (*provgraph.Graph, error) {
		return e.linkAt(asOf, proj.Derivs(), res.rows.refs, proj.Starts)
	}
	res.Stats.EvalTime = time.Since(evalStart)
	return res, nil
}

// collectPhys runs a plan to its answer cells and adopts them as rows,
// renumbering each cell in place from its column's table to the result
// refs. A table value is checked and registered once, when a cell first
// reads it — so only returned tuples register, and each distinct tuple
// once (by ordinal, which identifies it in its store). Under EVALUATE
// it returns the ordinal of each registered ref, in registration order.
func collectPhys(q *Query, plan *physplan.Plan, rows *resultRows) ([]int32, error) {
	ans, err := plan.Answer()
	if err != nil {
		return nil, err
	}
	// A cancellation that cut the answer short must not pass for its
	// end.
	if q.Cancel != nil {
		if err := q.Cancel(); err != nil {
			return nil, err
		}
	}
	ret := q.Projection.Return
	rows.vars = ret
	ids := map[int]int32{}
	var ords []int32
	// remap[base[i]+j] is 1 + the ref of column i's table entry j, 0
	// until a cell reads it.
	var baseBuf [8]int // a short RETURN list allocates no bases
	base, n := baseBuf[:0], 0
	for i := range ret {
		base = append(base, n)
		n += len(ans.Table(i))
	}
	remap := make([]int32, n)
	for r := 0; r < ans.Rows; r++ {
		row := ans.Cells[r*len(ret) : (r+1)*len(ret)]
		for i, c := range row {
			at := base[i] + int(c)
			if remap[at] == 0 {
				node := ans.Table(i)[c]
				tn, isTuple := node.(physplan.Tuple)
				switch {
				case node == nil:
					return nil, fmt.Errorf("proql: RETURN variable $%s is not bound by the FOR clause", ret[i])
				case !isTuple:
					return nil, fmt.Errorf("proql: RETURN variable $%s binds derivation nodes; only tuple nodes can be returned", ret[i])
				}
				id, seen := ids[tn.TupleOrd()]
				if !seen {
					id = rows.addRef(tn.TupleRef())
					ids[tn.TupleOrd()] = id
					if q.Evaluate != "" {
						ords = append(ords, int32(tn.TupleOrd()))
					}
				}
				remap[at] = id + 1
			}
			row[i] = remap[at] - 1
		}
	}
	rows.cells, rows.n = ans.Cells, ans.Rows
	return ords, nil
}

// lowerSpec lowers a query to the physplan spec.
func (e *Engine) lowerSpec(g physplan.Graph, q *Query, proj *physplan.Projection) (physplan.Spec, error) {
	spec := physplan.Spec{
		Return: q.Projection.Return,
		Out:    proj,
		Cancel: q.Cancel,
	}
	pathVars := map[string]bool{}
	for _, p := range q.Projection.For {
		spec.Paths = append(spec.Paths, toPhysPath(p))
		for _, v := range p.Vars() {
			pathVars[v] = true
		}
	}
	for _, p := range q.Projection.Include {
		spec.Include = append(spec.Include, toPhysPath(p))
	}
	if q.Projection.Where != nil {
		conjuncts := splitConjuncts(q.Projection.Where)
		e.pinStartKeys(q.Projection.For, conjuncts, spec.Paths)
		for _, c := range conjuncts {
			need := condVars(c)
			if _, isPath := c.(CondPath); isPath {
				// A path condition's variables outside the FOR clause
				// are existential: only the correlated ones gate
				// placement, so the filter can prune as early as the
				// correlation is available.
				var correlated []string
				for _, v := range need {
					if pathVars[v] {
						correlated = append(correlated, v)
					}
				}
				need = correlated
			}
			spec.Filters = append(spec.Filters, physplan.FilterSpec{
				Desc: c.condString(),
				Vars: need,
				Fn:   e.compileRowCond(g, c),
			})
		}
	}
	return spec, nil
}

// pinStartKeys gives physplan a key-pinned start for every FOR path
// whose start node [R $x] has all of R's primary-key columns fixed by
// WHERE conjuncts $x.col = literal: a query anchored on one tuple then
// starts from that tuple, not from every tuple of R. The conjuncts stay
// in the plan as Filters, so the pin may only skip rows they drop
// silently. That holds when the literal passes probeLiteral, the test
// the relational pushdown applies (the key lookup compares encodings,
// the Filter coerces), and when no conjunct evaluated before the pinning
// ones can fail on a skipped row — only the leading conjuncts that
// cannot fail are considered. The decision reads literal types, so it is
// made per request, never cached with the query's shape.
func (e *Engine) pinStartKeys(forPaths []PathExpr, conjuncts []Cond, paths []physplan.Path) {
	// The relation of each tuple variable some FOR node labels; nil for
	// a variable labelled with two relations (it matches nothing).
	relOf := map[string]*model.Relation{}
	for _, p := range forPaths {
		for _, n := range p.Nodes {
			if n.Var == "" || n.Rel == "" {
				continue
			}
			rel, _ := e.Sys.Schema.Relation(n.Rel)
			if prev, seen := relOf[n.Var]; seen && prev != rel {
				rel = nil
			}
			relOf[n.Var] = rel
		}
	}
	type attrOf struct {
		v   string
		col int
	}
	fixed := map[attrOf]model.Datum{}
	for _, c := range conjuncts {
		if !cannotFail(c, relOf) {
			break
		}
		attr, lit, ok := eqLiteral(c)
		if !ok {
			continue
		}
		rel := relOf[attr.Var]
		at := attrOf{attr.Var, rel.ColumnIndex(attr.Attr)}
		if _, dup := fixed[at]; dup {
			continue
		}
		if d, ok := probeLiteral(lit, rel.Columns[at.col].Type); ok {
			fixed[at] = d
		}
	}
	if len(fixed) == 0 {
		return
	}
	for i := range paths {
		n0 := paths[i].Nodes[0]
		rel := relOf[n0.Var]
		if n0.Rel == "" || rel == nil || len(rel.Key) == 0 {
			continue
		}
		key := make([]model.Datum, 0, len(rel.Key))
		for _, col := range rel.Key {
			if d, ok := fixed[attrOf{n0.Var, col}]; ok {
				key = append(key, d)
			}
		}
		if len(key) == len(rel.Key) {
			paths[i].StartKey = key
		}
	}
}

// cannotFail reports whether a WHERE condition evaluates to true or
// false — never to an error — on every row of the FOR paths: it reads
// only existing attributes of tuple variables whose relation a FOR node
// names (relOf).
func cannotFail(c Cond, relOf map[string]*model.Relation) bool {
	switch cc := c.(type) {
	case CondCmp:
		for _, o := range []CmpOperand{cc.L, cc.R} {
			if o.Var == "" {
				continue
			}
			if rel := relOf[o.Var]; rel == nil || rel.ColumnIndex(o.Attr) < 0 {
				return false
			}
		}
		return true
	case CondIn:
		return relOf[cc.Var] != nil
	case CondAnd:
		return cannotFail(cc.L, relOf) && cannotFail(cc.R, relOf)
	case CondOr:
		return cannotFail(cc.L, relOf) && cannotFail(cc.R, relOf)
	case CondNot:
		return cannotFail(cc.E, relOf)
	}
	return false
}

// toPhysPath lowers an AST path expression to the physical layer's
// representation.
func toPhysPath(p PathExpr) physplan.Path {
	out := physplan.Path{
		Nodes: make([]physplan.Node, len(p.Nodes)),
		Edges: make([]physplan.Edge, len(p.Edges)),
	}
	for i, n := range p.Nodes {
		out.Nodes[i] = physplan.Node{Rel: n.Rel, Var: n.Var}
	}
	for i, e := range p.Edges {
		kind := physplan.EdgeDirect
		if e.Kind == EdgePlus {
			kind = physplan.EdgePlus
		}
		out.Edges[i] = physplan.Edge{Kind: kind, Mapping: e.Mapping, Var: e.Var}
	}
	return out
}

// splitConjuncts flattens top-level ANDs into independently placeable
// filters.
func splitConjuncts(c Cond) []Cond {
	if and, ok := c.(CondAnd); ok {
		return append(splitConjuncts(and.L), splitConjuncts(and.R)...)
	}
	return []Cond{c}
}

// condVars returns the variables a condition references, including
// every variable of embedded path conditions.
func condVars(c Cond) []string {
	seen := map[string]bool{}
	var out []string
	add := func(v string) {
		if v != "" && !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	var walk func(c Cond)
	walk = func(c Cond) {
		switch cc := c.(type) {
		case CondCmp:
			add(cc.L.Var)
			add(cc.R.Var)
		case CondIn:
			add(cc.Var)
		case CondAnd:
			walk(cc.L)
			walk(cc.R)
		case CondOr:
			walk(cc.L)
			walk(cc.R)
		case CondNot:
			walk(cc.E)
		case CondPath:
			for _, v := range cc.Path.Vars() {
				add(v)
			}
		}
	}
	walk(c)
	return out
}

// compileRowCond compiles a WHERE condition into a row predicate over
// the plan schema, mirroring the interpreter's evalGraphCond.
func (e *Engine) compileRowCond(g physplan.Graph, c Cond) physplan.FilterFn {
	switch cc := c.(type) {
	case CondCmp:
		return func(s *physplan.Schema, row physplan.Row) (bool, error) {
			l, err := e.rowOperand(cc.L, s, row)
			if err != nil {
				return false, err
			}
			r, err := e.rowOperand(cc.R, s, row)
			if err != nil {
				return false, err
			}
			return compareDatums(cc.Op, l, r)
		}
	case CondIn:
		return func(s *physplan.Schema, row physplan.Row) (bool, error) {
			col := s.Col(cc.Var)
			if col < 0 || row[col] == nil {
				return false, fmt.Errorf("proql: WHERE references unbound variable $%s", cc.Var)
			}
			tn, ok := row[col].(physplan.Tuple)
			if !ok {
				return false, fmt.Errorf("proql: IN requires a tuple variable")
			}
			return tn.TupleRel() == cc.Rel, nil
		}
	case CondAnd:
		l, r := e.compileRowCond(g, cc.L), e.compileRowCond(g, cc.R)
		return func(s *physplan.Schema, row physplan.Row) (bool, error) {
			ok, err := l(s, row)
			if err != nil || !ok {
				return false, err
			}
			return r(s, row)
		}
	case CondOr:
		l, r := e.compileRowCond(g, cc.L), e.compileRowCond(g, cc.R)
		return func(s *physplan.Schema, row physplan.Row) (bool, error) {
			ok, err := l(s, row)
			if err != nil || ok {
				return ok, err
			}
			return r(s, row)
		}
	case CondNot:
		inner := e.compileRowCond(g, cc.E)
		return func(s *physplan.Schema, row physplan.Row) (bool, error) {
			ok, err := inner(s, row)
			return !ok, err
		}
	case CondPath:
		// The existence checker is compiled once against the plan
		// schema on first evaluation.
		var once sync.Once
		var check func(physplan.Row) (bool, error)
		path := toPhysPath(cc.Path)
		return func(s *physplan.Schema, row physplan.Row) (bool, error) {
			once.Do(func() { check = physplan.NewExistsChecker(g, path, s) })
			return check(row)
		}
	}
	return func(*physplan.Schema, physplan.Row) (bool, error) {
		return false, fmt.Errorf("proql: unsupported WHERE condition")
	}
}

// rowOperand resolves one comparison operand under a row, mirroring
// the interpreter's graphOperand.
func (e *Engine) rowOperand(o CmpOperand, s *physplan.Schema, row physplan.Row) (model.Datum, error) {
	if o.Var == "" {
		return o.Lit, nil
	}
	col := s.Col(o.Var)
	if col < 0 || row[col] == nil {
		return nil, fmt.Errorf("proql: WHERE references unbound variable $%s", o.Var)
	}
	switch n := row[col].(type) {
	case physplan.Deriv:
		if o.Attr != "" {
			return nil, fmt.Errorf("proql: derivation variable $%s has no attributes", o.Var)
		}
		return n.DerivMapping(), nil
	case physplan.Tuple:
		if o.Attr == "" {
			return nil, fmt.Errorf("proql: bare tuple variable $%s cannot be compared; use $%s.<attr> or IN", o.Var, o.Var)
		}
		rel, ok := e.Sys.Schema.Relation(n.TupleRel())
		if !ok {
			return nil, fmt.Errorf("proql: unknown relation %q", n.TupleRel())
		}
		idx := rel.ColumnIndex(o.Attr)
		if idx < 0 {
			return nil, fmt.Errorf("proql: relation %s has no attribute %q", rel.Name, o.Attr)
		}
		r := n.TupleRow()
		if r == nil {
			return nil, fmt.Errorf("proql: no stored row for %v", n.TupleRef())
		}
		return r[idx], nil
	}
	return nil, fmt.Errorf("proql: variable $%s bound to unexpected node", o.Var)
}
