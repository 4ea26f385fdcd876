package physplan

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/model"
)

// EdgeKind distinguishes single derivation steps from <-+ paths.
type EdgeKind int

// Edge kinds.
const (
	EdgeDirect EdgeKind = iota // <- , <mapping , <$var
	EdgePlus                   // <-+ (one or more steps)
)

// Node matches a tuple node: relation and/or variable, both optional.
type Node struct {
	Rel string
	Var string
}

func (n Node) String() string {
	switch {
	case n.Rel != "" && n.Var != "":
		return "[" + n.Rel + " $" + n.Var + "]"
	case n.Rel != "":
		return "[" + n.Rel + "]"
	case n.Var != "":
		return "[$" + n.Var + "]"
	}
	return "[]"
}

// Edge matches a derivation step (or, for EdgePlus, one or more
// steps). Mapping and Var are only meaningful for EdgeDirect.
type Edge struct {
	Kind    EdgeKind
	Mapping string
	Var     string
}

func (e Edge) String() string {
	switch {
	case e.Kind == EdgePlus:
		return "<-+"
	case e.Mapping != "":
		return "<" + e.Mapping
	case e.Var != "":
		return "<$" + e.Var
	}
	return "<-"
}

// Path is an alternating sequence of node and edge patterns, written
// left-to-right from derived tuples back toward their sources.
type Path struct {
	Nodes []Node // len = len(Edges)+1
	Edges []Edge
	// StartKey, when set, pins the start node — which must name a
	// relation — to the one tuple with this primary key (datums in the
	// relation's key order). Whoever sets it guarantees that a WHERE
	// conjunct rejects every other tuple of the relation, so the pin
	// changes the access path and never the result.
	StartKey []model.Datum
}

func (p Path) String() string {
	var sb strings.Builder
	for i, n := range p.Nodes {
		if i > 0 {
			sb.WriteByte(' ')
			sb.WriteString(p.Edges[i-1].String())
			sb.WriteByte(' ')
		}
		sb.WriteString(n.String())
	}
	return sb.String()
}

// Vars returns the variables bound by the path, tuple vars then
// derivation vars, in order of appearance.
func (p Path) Vars() []string {
	var out []string
	for _, n := range p.Nodes {
		if n.Var != "" {
			out = append(out, n.Var)
		}
	}
	for _, e := range p.Edges {
		if e.Var != "" {
			out = append(out, e.Var)
		}
	}
	return out
}

// boundPath is a path compiled against a schema: every variable
// resolved to its row column (-1 for variables without a column, which
// act as wildcards — used by INCLUDE paths, whose unbound variables
// never join).
type boundPath struct {
	path    Path
	nodeCol []int
	edgeCol []int
}

func bindPath(p Path, s *Schema) boundPath {
	bp := boundPath{
		path:    p,
		nodeCol: make([]int, len(p.Nodes)),
		edgeCol: make([]int, len(p.Edges)),
	}
	for i, n := range p.Nodes {
		bp.nodeCol[i] = -1
		if n.Var != "" {
			bp.nodeCol[i] = s.Col(n.Var)
		}
	}
	for i, e := range p.Edges {
		bp.edgeCol[i] = -1
		if e.Var != "" {
			bp.edgeCol[i] = s.Col(e.Var)
		}
	}
	return bp
}

// nodeMatches reports whether tn satisfies node pattern i under row.
func (bp *boundPath) nodeMatches(i int, tn Tuple, row Row) bool {
	if r := bp.path.Nodes[i].Rel; r != "" && tn.TupleRel() != r {
		return false
	}
	if c := bp.nodeCol[i]; c >= 0 {
		if prev := row[c]; prev != nil && prev != any(tn) {
			return false
		}
	}
	return true
}

// eachStart enumerates the candidate start tuples of the path under
// row, narrowest index first: a bound start variable, a bound
// first-edge derivation variable (its targets), a pinned primary key
// (one point lookup), the relation label index, the first-edge mapping
// index (targets of its derivations), or the whole store. With
// useIndexes false the derivation-variable and mapping shortcuts are
// skipped and candidate sets match the naive enumeration exactly
// (INCLUDE paths copy metadata for every candidate, so their candidate
// set is semantically visible).
func (bp *boundPath) eachStart(g Graph, row Row, useIndexes bool, yield func(Tuple) bool) error {
	n0 := bp.path.Nodes[0]
	if c := bp.nodeCol[0]; c >= 0 && row[c] != nil {
		tn, ok := row[c].(Tuple)
		if !ok {
			return fmt.Errorf("proql: variable $%s is a derivation node but used as a tuple node", n0.Var)
		}
		yield(tn)
		return nil
	}
	if useIndexes && len(bp.path.Edges) > 0 && bp.path.Edges[0].Kind == EdgeDirect {
		if c := bp.edgeCol[0]; c >= 0 && row[c] != nil {
			if d, ok := row[c].(Deriv); ok {
				g.EachTarget(d, yield)
				return nil
			}
		}
	}
	if bp.path.StartKey != nil {
		if t, ok := g.TupleByKey(n0.Rel, bp.path.StartKey); ok {
			yield(t)
		}
		return nil
	}
	if n0.Rel != "" {
		g.EachTupleOf(n0.Rel, yield)
		return nil
	}
	if useIndexes && len(bp.path.Edges) > 0 && bp.path.Edges[0].Kind == EdgeDirect && bp.path.Edges[0].Mapping != "" {
		// Label index: a valid start must be the target of at least one
		// derivation of the first edge's mapping.
		seen := map[Tuple]bool{}
		cont := true
		g.EachDerivOf(bp.path.Edges[0].Mapping, func(d Deriv) bool {
			g.EachTarget(d, func(t Tuple) bool {
				if !seen[t] {
					seen[t] = true
					cont = yield(t)
				}
				return cont
			})
			return cont
		})
		return nil
	}
	g.EachTuple(yield)
	return nil
}

// startsDesc describes the start strategy for EXPLAIN output, given the
// variables bound before this path runs.
func (bp *boundPath) startsDesc(bound map[string]bool) string {
	n0 := bp.path.Nodes[0]
	if n0.Var != "" && bound[n0.Var] {
		return "start=$" + n0.Var
	}
	if len(bp.path.Edges) > 0 && bp.path.Edges[0].Kind == EdgeDirect && bp.path.Edges[0].Var != "" && bound[bp.path.Edges[0].Var] {
		return "start=targets($" + bp.path.Edges[0].Var + ")"
	}
	if bp.path.StartKey != nil {
		key := make([]string, len(bp.path.StartKey))
		for i, d := range bp.path.StartKey {
			key[i] = model.FormatDatum(d)
		}
		return "start=key:" + n0.Rel + "(" + strings.Join(key, ", ") + ")"
	}
	if n0.Rel != "" {
		return "start=index:rel(" + n0.Rel + ")"
	}
	if len(bp.path.Edges) > 0 && bp.path.Edges[0].Kind == EdgeDirect && bp.path.Edges[0].Mapping != "" {
		return "start=index:mapping(" + bp.path.Edges[0].Mapping + ")"
	}
	return "start=scan:all"
}

// matcher enumerates the matches of one bound path. It binds the
// path's columns in place on one scratch row, unbinding them on the way
// back, and passes that row — borrowed, valid only during the call — to
// the consumer, which copies it if it keeps it; the simple-path and
// ancestor bookkeeping is reused across starts. A matcher serves one
// goroutine.
type matcher struct {
	bp      *boundPath
	g       Graph
	row     Row
	visited map[Tuple]bool
	// reached holds the per-edge ancestor lists of <-+ steps; marks is
	// the running walk's set of entered (or blocked) tuple ordinals,
	// walkEdge the edge it fills, and walkDeriv/walkSource its
	// callbacks, bound once.
	reached    [][]Tuple
	marks      marks
	walkEdge   int
	walkDeriv  func(Deriv) bool
	walkSource func(Tuple) bool
}

func (bp *boundPath) newMatcher(g Graph) *matcher {
	m := &matcher{bp: bp, g: g, visited: map[Tuple]bool{}}
	if !slices.ContainsFunc(bp.path.Edges, func(e Edge) bool { return e.Kind == EdgePlus }) {
		return m
	}
	m.reached = make([][]Tuple, len(bp.path.Edges))
	m.walkDeriv = func(d Deriv) bool {
		m.g.EachSource(d, m.walkSource)
		return true
	}
	m.walkSource = func(src Tuple) bool {
		if !m.marks.mark(uint64(src.TupleOrd())) {
			return true
		}
		m.reached[m.walkEdge] = append(m.reached[m.walkEdge], src)
		m.g.EachDerivInto(src, "", m.walkDeriv)
		return true
	}
	return m
}

// matchAll enumerates every extension of row that satisfies the path,
// passing each completed row (borrowed) to yield. yield returning false
// stops the enumeration early, and matchAll then reports false.
func (m *matcher) matchAll(row Row, yield func(Row) bool) (bool, error) {
	cont := true
	err := m.bp.eachStart(m.g, row, true, func(st Tuple) bool {
		cont = m.matchStart(st, row, yield)
		return cont
	})
	return cont, err
}

// matchStart enumerates the path's matches extending row anchored at
// one start tuple. It reports false when yield stopped the enumeration.
func (m *matcher) matchStart(st Tuple, row Row, yield func(Row) bool) bool {
	if !m.bp.nodeMatches(0, st, row) {
		return true
	}
	if len(m.row) != len(row) {
		m.row = make(Row, len(row))
	}
	copy(m.row, row)
	if c := m.bp.nodeCol[0]; c >= 0 && m.row[c] == nil {
		m.row[c] = st
	}
	m.visited[st] = true
	cont := m.step(0, st, yield)
	delete(m.visited, st)
	return cont
}

// step matches the path's edge edgeIdx (and everything after it) from
// cur, mirroring the tree-walking interpreter's simple-path semantics:
// within one path match a tuple node is never revisited.
func (m *matcher) step(edgeIdx int, cur Tuple, yield func(Row) bool) bool {
	bp, row := m.bp, m.row
	if edgeIdx == len(bp.path.Edges) {
		return yield(row)
	}
	edge := bp.path.Edges[edgeIdx]
	nextCol := bp.nodeCol[edgeIdx+1]
	last := edgeIdx+1 == len(bp.path.Edges)
	// next binds src at the following node (if its column is free),
	// matches the rest of the path, and unbinds. After the last edge
	// no step reads visited, so src is not entered there.
	next := func(src Tuple) bool {
		bind := nextCol >= 0 && row[nextCol] == nil
		if bind {
			row[nextCol] = src
		}
		var cont bool
		if last {
			cont = yield(row)
		} else {
			m.visited[src] = true
			cont = m.step(edgeIdx+1, src, yield)
			delete(m.visited, src)
		}
		if bind {
			row[nextCol] = nil
		}
		return cont
	}
	cont := true
	switch edge.Kind {
	case EdgeDirect:
		ec := bp.edgeCol[edgeIdx]
		m.g.EachDerivInto(cur, edge.Mapping, func(d Deriv) bool {
			if ec >= 0 {
				if prev := row[ec]; prev != nil && prev != any(d) {
					return true
				}
			}
			m.g.EachSource(d, func(src Tuple) bool {
				if m.visited[src] || !bp.nodeMatches(edgeIdx+1, src, row) {
					return true
				}
				bind := ec >= 0 && row[ec] == nil
				if bind {
					row[ec] = d
				}
				cont = next(src)
				if bind {
					row[ec] = nil
				}
				return cont
			})
			return cont
		})
	case EdgePlus:
		// Every ancestor at distance >= 1 that a simple path avoiding
		// the nodes already on this match reaches, in the order the
		// simple-path enumeration first reaches it. A depth-first walk
		// that marks each node once and never unmarks it visits exactly
		// those nodes in exactly that order: a node the enumeration
		// re-enters along another simple path leads only to nodes the
		// walk has already marked. So each ancestor is entered once per
		// walk — linear where shared ancestors (diamonds) make the
		// simple paths exponential.
		m.marks.reset()
		for t := range m.visited {
			m.marks.mark(uint64(t.TupleOrd()))
		}
		m.reached[edgeIdx] = m.reached[edgeIdx][:0]
		m.walkEdge = edgeIdx
		m.g.EachDerivInto(cur, "", m.walkDeriv)
		for _, src := range m.reached[edgeIdx] {
			if !bp.nodeMatches(edgeIdx+1, src, row) {
				continue
			}
			if cont = next(src); !cont {
				break
			}
		}
	}
	return cont
}

// NewExistsChecker precompiles an existential path condition against a
// schema, returning a predicate over that schema's rows (for one
// goroutine at a time). It is the WHERE-clause path-condition
// primitive: variables of the path absent from s are existential.
func NewExistsChecker(g Graph, p Path, s *Schema) func(Row) (bool, error) {
	ext := s.Extend(p.Vars())
	bp := bindPath(p, ext)
	m := bp.newMatcher(g)
	seed := make(Row, ext.Width())
	return func(row Row) (bool, error) {
		clear(seed)
		copy(seed, row)
		found := false
		_, err := m.matchAll(seed, func(Row) bool {
			found = true
			return false
		})
		return found, err
	}
}
