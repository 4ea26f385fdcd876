package proql

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/model"
	"repro/internal/provgraph"
	"repro/internal/semiring"
)

// execGraph evaluates a query by walking a materialized provenance
// graph: the tree-walking interpreter the ProQL differentials use as
// their oracle. It implements the full ProQL semantics — multiple path
// expressions joined on shared variables, derivation variables,
// existential path conditions — by threading bindings path by path and
// touching the whole graph, and it shares no planning or path-matching
// code with the relational, path backend.
func (e *Engine) execGraph(g *provgraph.Graph, q *Query) (*Result, error) {
	start := time.Now()
	outG := provgraph.New()
	res := &Result{
		Stats: Stats{Backend: "interpreter"},
		graph: outG,
	}

	// Match the FOR paths, threading bindings left to right.
	bindings := []graphBinding{{}}
	for _, path := range q.Projection.For {
		var next []graphBinding
		for _, b := range bindings {
			matches, err := matchPathBinding(g, path, b)
			if err != nil {
				return nil, err
			}
			next = append(next, matches...)
		}
		bindings = next
	}
	// WHERE filtering.
	if q.Projection.Where != nil {
		var kept []graphBinding
		for _, b := range bindings {
			ok, err := e.evalGraphCond(g, q.Projection.Where, b)
			if err != nil {
				return nil, err
			}
			if ok {
				kept = append(kept, b)
			}
		}
		bindings = kept
	}
	// Deduplicate bindings on the RETURN variables.
	seen := map[string]bool{}
	var rows []graphBinding
	for _, b := range bindings {
		sig := bindingSignature(b, q.Projection.Return)
		if !seen[sig] {
			seen[sig] = true
			rows = append(rows, b)
		}
	}

	// Assemble RETURN rows and the projected subgraph.
	res.rows.vars = q.Projection.Return
	ids := map[*provgraph.TupleNode]int32{}
	cells := make([]int32, len(q.Projection.Return))
	for _, b := range rows {
		for i, v := range q.Projection.Return {
			node, ok := b[v]
			if !ok {
				return nil, fmt.Errorf("proql: RETURN variable $%s is not bound by the FOR clause", v)
			}
			tn, ok := node.(*provgraph.TupleNode)
			if !ok {
				return nil, fmt.Errorf("proql: RETURN variable $%s binds derivation nodes; only tuple nodes can be returned", v)
			}
			id, seen := ids[tn]
			if !seen {
				id = res.rows.addRef(tn.Ref)
				ids[tn] = id
			}
			cells[i] = id
			copyTupleMeta(outG, tn)
		}
		res.rows.addRow(cells...)
		for _, inc := range q.Projection.Include {
			if err := includePath(g, outG, inc, b); err != nil {
				return nil, err
			}
		}
	}
	res.rows.sort()

	if q.Evaluate != "" {
		if err := e.annotateGraph(q, res, outG); err != nil {
			return nil, err
		}
	}
	res.Stats.EvalTime = time.Since(start)
	return res, nil
}

// annotateGraph runs the EVALUATE clause over the interpreter's
// projected subgraph with evalGraph: tuple nodes with no incoming
// derivations in the projection are its leaves (Section 3.2.2), as are
// those with a local contribution.
func (e *Engine) annotateGraph(q *Query, res *Result, outG *provgraph.Graph) error {
	s, err := semiring.Lookup(q.Evaluate)
	if err != nil {
		return err
	}
	res.Semiring = s
	for _, tn := range outG.Tuples() {
		if len(tn.Derivations) == 0 {
			tn.Leaf = true
		}
	}
	var names []string
	for _, m := range e.Sys.Schema.Mappings() {
		names = append(names, m.Name)
	}
	mapFuncs, err := buildMapFuncs(s, q.MapAssign, names)
	if err != nil {
		return err
	}
	var leafErr error
	ann, err := evalGraph(outG, s, func(tn *provgraph.TupleNode) semiring.Value {
		rel, ok := e.Sys.Schema.Relation(tn.Ref.Rel)
		if !ok {
			leafErr = fmt.Errorf("proql: unknown relation %q", tn.Ref.Rel)
			return s.Zero()
		}
		v, err := evalLeafAssign(s, q.LeafAssign, leafContextForRow(rel, tn.Row, tn.Ref))
		if err != nil {
			leafErr = err
			return s.Zero()
		}
		return v
	}, func(m string) semiring.MappingFunc {
		if f := mapFuncs[m]; f != nil {
			return f
		}
		return semiring.Identity
	})
	if err != nil {
		return err
	}
	if leafErr != nil {
		return leafErr
	}
	res.Annotations = make(map[model.TupleRef]semiring.Value)
	for _, ref := range res.rows.refs {
		if tn, ok := outG.Lookup(ref); ok {
			res.Annotations[ref] = ann[tn]
		}
	}
	return nil
}

// evalGraph is the oracle's reference semiring evaluation over a whole
// graph (Section 2.1): a tuple's annotation is the ⊕ of its leaf value
// (if it is a leaf) and, per derivation, f_m(⊗ of the sources'
// annotations). An acyclic graph is evaluated bottom-up, each tuple
// after its sources; a cyclic one by the monotone fixpoint x ⊕ next
// from Zero, within 2·(#tuples+#derivations)+2 rounds, and only for a
// cycle-safe semiring.
func evalGraph(g *provgraph.Graph, s semiring.Semiring, leaf func(*provgraph.TupleNode) semiring.Value, mapFunc func(string) semiring.MappingFunc) (map[*provgraph.TupleNode]semiring.Value, error) {
	ann := make(map[*provgraph.TupleNode]semiring.Value, g.NumTuples())
	step := func(tn *provgraph.TupleNode) semiring.Value {
		acc := s.Zero()
		if tn.Leaf {
			acc = s.Plus(acc, leaf(tn))
		}
		for _, d := range tn.Derivations {
			prod := s.One()
			for _, src := range d.Sources {
				v, ok := ann[src]
				if !ok {
					v = s.Zero()
				}
				prod = s.Times(prod, v)
			}
			acc = s.Plus(acc, mapFunc(d.Mapping)(prod))
		}
		return acc
	}
	cyclic := false
	onPath := map[*provgraph.TupleNode]bool{}
	var visit func(*provgraph.TupleNode)
	visit = func(tn *provgraph.TupleNode) {
		if _, done := ann[tn]; done || cyclic {
			return
		}
		if onPath[tn] {
			cyclic = true
			return
		}
		onPath[tn] = true
		for _, d := range tn.Derivations {
			for _, src := range d.Sources {
				visit(src)
			}
		}
		onPath[tn] = false
		ann[tn] = step(tn)
	}
	for _, tn := range g.Tuples() {
		visit(tn)
	}
	if !cyclic {
		return ann, nil
	}
	if !s.CycleSafe() {
		return nil, fmt.Errorf("proql: graph is cyclic and semiring %s cannot be evaluated by fixpoint", s.Name())
	}
	for _, tn := range g.Tuples() {
		ann[tn] = s.Zero()
	}
	rounds := 2*(g.NumTuples()+g.NumDerivations()) + 2
	for range rounds {
		changed := false
		for _, tn := range g.Tuples() {
			if next := s.Plus(ann[tn], step(tn)); !s.Eq(next, ann[tn]) {
				ann[tn], changed = next, true
			}
		}
		if !changed {
			return ann, nil
		}
	}
	return nil, fmt.Errorf("proql: fixpoint did not converge within %d rounds", rounds)
}

// graphBinding maps variables to graph nodes (*provgraph.TupleNode or
// *provgraph.DerivNode).
type graphBinding map[string]any

func cloneBinding(b graphBinding) graphBinding {
	out := make(graphBinding, len(b)+2)
	for k, v := range b {
		out[k] = v
	}
	return out
}

// bindingSignature keys a binding by the RETURN variables using
// graph-node ordinals: unique integers with explicit type tags and
// separators, so distinct bindings can never collide (the previous
// concatenation of raw node names could, since names may contain any
// byte), and an unbound variable is an explicit '?' rather than
// vanishing from the key.
func bindingSignature(b graphBinding, vars []string) string {
	var sb strings.Builder
	for _, v := range vars {
		switch n := b[v].(type) {
		case *provgraph.TupleNode:
			sb.WriteByte('t')
			sb.WriteString(strconv.Itoa(n.TupleOrd()))
		case *provgraph.DerivNode:
			sb.WriteByte('d')
			sb.WriteString(strconv.Itoa(n.DerivOrd()))
		default:
			sb.WriteByte('?')
		}
		sb.WriteByte(',')
	}
	return sb.String()
}

// matchPathBinding enumerates all extensions of binding b that satisfy
// one path expression at the instance level.
func matchPathBinding(g *provgraph.Graph, path PathExpr, b graphBinding) ([]graphBinding, error) {
	starts, err := candidateTuples(g, path.Nodes[0], b)
	if err != nil {
		return nil, err
	}
	var out []graphBinding
	for _, st := range starts {
		nb := cloneBinding(b)
		if path.Nodes[0].Var != "" {
			nb[path.Nodes[0].Var] = st
		}
		matchSteps(g, path, 0, st, nb, map[*provgraph.TupleNode]bool{st: true}, &out)
	}
	return out, nil
}

func matchSteps(g *provgraph.Graph, path PathExpr, edgeIdx int, cur *provgraph.TupleNode, b graphBinding, visited map[*provgraph.TupleNode]bool, out *[]graphBinding) {
	if edgeIdx == len(path.Edges) {
		*out = append(*out, cloneBinding(b))
		return
	}
	edge := path.Edges[edgeIdx]
	nextPat := path.Nodes[edgeIdx+1]
	switch edge.Kind {
	case EdgeDirect:
		for _, d := range cur.Derivations {
			if edge.Mapping != "" && d.Mapping != edge.Mapping {
				continue
			}
			if edge.Var != "" {
				if prev, bound := b[edge.Var]; bound && prev != any(d) {
					continue
				}
			}
			for _, src := range d.Sources {
				if !tupleMatches(nextPat, src, b) || visited[src] {
					continue
				}
				nb := cloneBinding(b)
				if edge.Var != "" {
					nb[edge.Var] = d
				}
				if nextPat.Var != "" {
					nb[nextPat.Var] = src
				}
				visited[src] = true
				matchSteps(g, path, edgeIdx+1, src, nb, visited, out)
				delete(visited, src)
			}
		}
	case EdgePlus:
		// All ancestors at distance >= 1 without revisiting tuples.
		reached := map[*provgraph.TupleNode]bool{}
		var walk func(t *provgraph.TupleNode)
		walk = func(t *provgraph.TupleNode) {
			for _, d := range t.Derivations {
				for _, src := range d.Sources {
					if visited[src] {
						continue
					}
					if !reached[src] {
						reached[src] = true
					}
					visited[src] = true
					walk(src)
					delete(visited, src)
				}
			}
		}
		walk(cur)
		for src := range reached {
			if !tupleMatches(nextPat, src, b) {
				continue
			}
			nb := cloneBinding(b)
			if nextPat.Var != "" {
				nb[nextPat.Var] = src
			}
			visited[src] = true
			matchSteps(g, path, edgeIdx+1, src, nb, visited, out)
			delete(visited, src)
		}
	}
}

func tupleMatches(pat NodePattern, tn *provgraph.TupleNode, b graphBinding) bool {
	if pat.Rel != "" && tn.Ref.Rel != pat.Rel {
		return false
	}
	if pat.Var != "" {
		if prev, bound := b[pat.Var]; bound && prev != any(tn) {
			return false
		}
	}
	return true
}

func candidateTuples(g *provgraph.Graph, pat NodePattern, b graphBinding) ([]*provgraph.TupleNode, error) {
	if pat.Var != "" {
		if prev, bound := b[pat.Var]; bound {
			tn, ok := prev.(*provgraph.TupleNode)
			if !ok {
				return nil, fmt.Errorf("proql: variable $%s is a derivation node but used as a tuple node", pat.Var)
			}
			if pat.Rel != "" && tn.Ref.Rel != pat.Rel {
				return nil, nil
			}
			return []*provgraph.TupleNode{tn}, nil
		}
	}
	if pat.Rel != "" {
		var out []*provgraph.TupleNode
		for _, tn := range g.Tuples() {
			if tn.Ref.Rel == pat.Rel {
				out = append(out, tn)
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Ref.Key < out[j].Ref.Key })
		return out, nil
	}
	return g.Tuples(), nil
}

// evalGraphCond evaluates a WHERE condition under a graph binding.
func (e *Engine) evalGraphCond(g *provgraph.Graph, c Cond, b graphBinding) (bool, error) {
	switch cc := c.(type) {
	case CondCmp:
		l, err := e.graphOperand(cc.L, b)
		if err != nil {
			return false, err
		}
		r, err := e.graphOperand(cc.R, b)
		if err != nil {
			return false, err
		}
		return compareDatums(cc.Op, l, r)
	case CondIn:
		node, ok := b[cc.Var]
		if !ok {
			return false, fmt.Errorf("proql: WHERE references unbound variable $%s", cc.Var)
		}
		tn, ok := node.(*provgraph.TupleNode)
		if !ok {
			return false, fmt.Errorf("proql: IN requires a tuple variable")
		}
		return tn.Ref.Rel == cc.Rel, nil
	case CondAnd:
		l, err := e.evalGraphCond(g, cc.L, b)
		if err != nil || !l {
			return false, err
		}
		return e.evalGraphCond(g, cc.R, b)
	case CondOr:
		l, err := e.evalGraphCond(g, cc.L, b)
		if err != nil || l {
			return l, err
		}
		return e.evalGraphCond(g, cc.R, b)
	case CondNot:
		v, err := e.evalGraphCond(g, cc.E, b)
		return !v, err
	case CondPath:
		matches, err := matchPathBinding(g, cc.Path, b)
		if err != nil {
			return false, err
		}
		return len(matches) > 0, nil
	}
	return false, fmt.Errorf("proql: unsupported WHERE condition")
}

func (e *Engine) graphOperand(o CmpOperand, b graphBinding) (model.Datum, error) {
	if o.Var == "" {
		return o.Lit, nil
	}
	node, ok := b[o.Var]
	if !ok {
		return nil, fmt.Errorf("proql: WHERE references unbound variable $%s", o.Var)
	}
	switch n := node.(type) {
	case *provgraph.DerivNode:
		if o.Attr != "" {
			return nil, fmt.Errorf("proql: derivation variable $%s has no attributes", o.Var)
		}
		return n.Mapping, nil
	case *provgraph.TupleNode:
		if o.Attr == "" {
			return nil, fmt.Errorf("proql: bare tuple variable $%s cannot be compared; use $%s.<attr> or IN", o.Var, o.Var)
		}
		rel, ok := e.Sys.Schema.Relation(n.Ref.Rel)
		if !ok {
			return nil, fmt.Errorf("proql: unknown relation %q", n.Ref.Rel)
		}
		idx := rel.ColumnIndex(o.Attr)
		if idx < 0 {
			return nil, fmt.Errorf("proql: relation %s has no attribute %q", rel.Name, o.Attr)
		}
		if n.Row == nil {
			return nil, fmt.Errorf("proql: no stored row for %v", n.Ref)
		}
		return n.Row[idx], nil
	}
	return nil, fmt.Errorf("proql: variable $%s bound to unexpected node", o.Var)
}

// includePath copies the paths matching one INCLUDE PATH expression
// (under an existing binding) into the output graph. Every included
// derivation node brings all of its sources and targets.
func includePath(g *provgraph.Graph, out *provgraph.Graph, path PathExpr, b graphBinding) error {
	starts, err := candidateTuples(g, path.Nodes[0], b)
	if err != nil {
		return err
	}
	for _, st := range starts {
		copyTupleMeta(out, st)
		walkInclude(g, out, path, 0, st, b, map[*provgraph.TupleNode]bool{st: true})
	}
	return nil
}

func walkInclude(g *provgraph.Graph, out *provgraph.Graph, path PathExpr, edgeIdx int, cur *provgraph.TupleNode, b graphBinding, visited map[*provgraph.TupleNode]bool) bool {
	if edgeIdx == len(path.Edges) {
		return true
	}
	edge := path.Edges[edgeIdx]
	nextPat := path.Nodes[edgeIdx+1]
	// Fast path for the ubiquitous [$x] <-+ [] suffix: every ancestor
	// derivation is included, so a linear BFS replaces simple-path
	// enumeration (which can be exponential, and matters on cyclic
	// graphs).
	if edge.Kind == EdgePlus && edgeIdx == len(path.Edges)-1 &&
		nextPat.Rel == "" && (nextPat.Var == "" || b[nextPat.Var] == nil) {
		return includeAllAncestors(out, cur)
	}
	matchedAny := false
	switch edge.Kind {
	case EdgeDirect:
		for _, d := range cur.Derivations {
			if edge.Mapping != "" && d.Mapping != edge.Mapping {
				continue
			}
			if edge.Var != "" {
				if prev, bound := b[edge.Var]; bound && prev != any(d) {
					continue
				}
			}
			for _, src := range d.Sources {
				if visited[src] || !tupleMatches(nextPat, src, b) {
					continue
				}
				visited[src] = true
				if walkInclude(g, out, path, edgeIdx+1, src, b, visited) {
					copyDerivation(out, d)
					matchedAny = true
				}
				delete(visited, src)
			}
		}
	case EdgePlus:
		// Treat <-+ as one step followed by zero-or-more: copy a
		// derivation iff its source either matches the next pattern
		// (path ends here) or continues to a successful match.
		var walk func(t *provgraph.TupleNode) bool
		walk = func(t *provgraph.TupleNode) bool {
			ok := false
			for _, d := range t.Derivations {
				for _, src := range d.Sources {
					if visited[src] {
						continue
					}
					visited[src] = true
					endsHere := false
					if tupleMatches(nextPat, src, b) {
						if walkInclude(g, out, path, edgeIdx+1, src, b, visited) {
							endsHere = true
						}
					}
					continues := walk(src)
					if endsHere || continues {
						copyDerivation(out, d)
						ok = true
					}
					delete(visited, src)
				}
			}
			return ok
		}
		matchedAny = walk(cur)
	}
	return matchedAny
}

// includeAllAncestors copies every derivation backwards-reachable from
// cur into the output graph, reporting whether any exists.
func includeAllAncestors(out *provgraph.Graph, cur *provgraph.TupleNode) bool {
	seen := map[*provgraph.TupleNode]bool{cur: true}
	queue := []*provgraph.TupleNode{cur}
	any := false
	for len(queue) > 0 {
		tn := queue[0]
		queue = queue[1:]
		for _, d := range tn.Derivations {
			any = true
			copyDerivation(out, d)
			for _, src := range d.Sources {
				if !seen[src] {
					seen[src] = true
					queue = append(queue, src)
				}
			}
		}
	}
	return any
}

func copyDerivation(out *provgraph.Graph, d *provgraph.DerivNode) {
	srcs := make([]model.TupleRef, len(d.Sources))
	for i, s := range d.Sources {
		srcs[i] = s.Ref
	}
	tgts := make([]model.TupleRef, len(d.Targets))
	for i, t := range d.Targets {
		tgts[i] = t.Ref
	}
	out.AddDerivation(d.ID, d.Mapping, srcs, tgts)
	for _, s := range d.Sources {
		copyTupleMeta(out, s)
	}
	for _, t := range d.Targets {
		copyTupleMeta(out, t)
	}
}

func copyTupleMeta(out *provgraph.Graph, tn *provgraph.TupleNode) {
	n := out.Tuple(tn.Ref)
	if n.Row == nil {
		n.Row = tn.Row
	}
	n.Leaf = tn.Leaf
}
