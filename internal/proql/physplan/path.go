package physplan

import (
	"fmt"
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
	if r := bp.path.Nodes[i].Rel; r != "" && tn.TupleRef().Rel != r {
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

// startTuples materializes eachStart's candidates (the parallel scan
// partitions them over workers).
func (bp *boundPath) startTuples(g Graph, row Row, useIndexes bool) ([]Tuple, error) {
	var out []Tuple
	err := bp.eachStart(g, row, useIndexes, func(t Tuple) bool {
		out = append(out, t)
		return true
	})
	return out, err
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

// matchAll enumerates every extension of row that satisfies the path,
// passing each completed row (a fresh copy) to yield. yield returning
// false stops the enumeration early.
func (bp *boundPath) matchAll(g Graph, row Row, yield func(Row) bool) error {
	cont := true
	err := bp.eachStart(g, row, true, func(st Tuple) bool {
		cont = bp.matchStart(g, st, row, yield)
		return cont
	})
	return err
}

// matchStart enumerates the path's matches anchored at one start
// tuple. It reports false when yield stopped the enumeration.
func (bp *boundPath) matchStart(g Graph, st Tuple, row Row, yield func(Row) bool) bool {
	if !bp.nodeMatches(0, st, row) {
		return true
	}
	nr := row
	if c := bp.nodeCol[0]; c >= 0 && nr[c] == nil {
		nr = cloneRow(nr)
		nr[c] = st
	}
	visited := map[Tuple]bool{st: true}
	return bp.step(g, 0, st, nr, visited, yield)
}

// step matches the path's edge edgeIdx (and everything after it) from
// cur, mirroring the tree-walking interpreter's simple-path semantics:
// within one path match a tuple node is never revisited.
func (bp *boundPath) step(g Graph, edgeIdx int, cur Tuple, row Row, visited map[Tuple]bool, yield func(Row) bool) bool {
	if edgeIdx == len(bp.path.Edges) {
		return yield(cloneRow(row))
	}
	edge := bp.path.Edges[edgeIdx]
	nextCol := bp.nodeCol[edgeIdx+1]
	cont := true
	switch edge.Kind {
	case EdgeDirect:
		ec := bp.edgeCol[edgeIdx]
		g.EachDerivInto(cur, edge.Mapping, func(d Deriv) bool {
			if ec >= 0 {
				if prev := row[ec]; prev != nil && prev != any(d) {
					return true
				}
			}
			g.EachSource(d, func(src Tuple) bool {
				if visited[src] || !bp.nodeMatches(edgeIdx+1, src, row) {
					return true
				}
				nr, cloned := row, false
				if ec >= 0 && nr[ec] == nil {
					nr, cloned = cloneRow(nr), true
					nr[ec] = d
				}
				if nextCol >= 0 && nr[nextCol] == nil {
					if !cloned {
						nr = cloneRow(nr)
					}
					nr[nextCol] = src
				}
				visited[src] = true
				cont = bp.step(g, edgeIdx+1, src, nr, visited, yield)
				delete(visited, src)
				return cont
			})
			return cont
		})
	case EdgePlus:
		// All ancestors at distance >= 1 reachable by simple paths, in
		// discovery order for determinism.
		var reached []Tuple
		seen := map[Tuple]bool{}
		var walk func(t Tuple)
		walk = func(t Tuple) {
			g.EachDerivInto(t, "", func(d Deriv) bool {
				g.EachSource(d, func(src Tuple) bool {
					if visited[src] {
						return true
					}
					if !seen[src] {
						seen[src] = true
						reached = append(reached, src)
					}
					visited[src] = true
					walk(src)
					delete(visited, src)
					return true
				})
				return true
			})
		}
		walk(cur)
		for _, src := range reached {
			if !bp.nodeMatches(edgeIdx+1, src, row) {
				continue
			}
			nr := row
			if nextCol >= 0 && nr[nextCol] == nil {
				nr = cloneRow(nr)
				nr[nextCol] = src
			}
			visited[src] = true
			cont = bp.step(g, edgeIdx+1, src, nr, visited, yield)
			delete(visited, src)
			if !cont {
				break
			}
		}
	}
	return cont
}

// NewExistsChecker precompiles an existential path condition against a
// schema, returning a predicate over that schema's rows. It is the
// WHERE-clause path-condition primitive: variables of the path absent
// from s are existential.
func NewExistsChecker(g Graph, p Path, s *Schema) func(Row) (bool, error) {
	ext := s.Extend(p.Vars())
	bp := bindPath(p, ext)
	width := ext.Width()
	return func(row Row) (bool, error) {
		seed := make(Row, width)
		copy(seed, row)
		found := false
		err := bp.matchAll(g, seed, func(Row) bool {
			found = true
			return false
		})
		return found, err
	}
}
