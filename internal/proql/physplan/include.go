package physplan

import (
	"strings"

	"repro/internal/model"
)

// Projection records the subgraph a plan's INCLUDE PATH clauses
// project without linking it: each included derivation once, as its
// mapping and provenance row (copied while the store is still pinned;
// the row names the derivation's sources and targets), and each
// candidate path-start tuple once. Memory follows what is recorded,
// never the store's ordinal range.
type Projection struct {
	Derivs []ProjDeriv      // in recording order
	Starts []model.TupleRef // in recording order
	seen   marks            // node codes of the recorded handles
}

// ProjDeriv is one recorded derivation: the mapping that fired and its
// provenance row.
type ProjDeriv struct {
	Mapping string
	Row     model.Tuple
}

// fresh marks a Tuple or Deriv handle recorded, reporting whether it
// was not yet.
func (p *Projection) fresh(h any) bool {
	return p.seen.mark(nodeCode(h))
}

func (p *Projection) addDeriv(d Deriv) {
	if p.fresh(d) {
		p.Derivs = push(p.Derivs, ProjDeriv{Mapping: d.DerivMapping(), Row: d.DerivRow()})
	}
}

// Include records the provenance paths matching the query's INCLUDE
// PATH expressions (under each surviving row) into the projection,
// passing rows through unchanged. Include runs after Dedup, mirroring
// the interpreter: one projection per distinct RETURN row. Variables
// of an include path that the row leaves unbound act as wildcards; the
// walk never binds them.
type Include struct {
	input Op
	g     Graph
	out   *Projection
	paths []boundPath
}

// Schema implements Op.
func (inc *Include) Schema() *Schema { return inc.input.Schema() }

func (inc *Include) explain(sb *strings.Builder, indent int) {
	descs := make([]string, len(inc.paths))
	for i, bp := range inc.paths {
		descs[i] = bp.path.String()
	}
	writeLine(sb, indent, "Include(%s)", strings.Join(descs, "; "))
	inc.input.explain(sb, indent+1)
}

// each implements Op.
func (inc *Include) each(yield func(Row) bool) error {
	w := newIncludeWalk(inc.g, inc.out)
	var err error
	if ierr := inc.input.each(func(row Row) bool {
		for i := range inc.paths {
			if err = w.include(&inc.paths[i], row); err != nil {
				return false
			}
		}
		return yield(row)
	}); ierr != nil {
		return ierr
	}
	return err
}

// includeWalk is one Include execution's walk state, reused across rows
// and starts: the simple-path visited set, and the ancestor BFS's queue
// and done set (tuple ordinals). A tuple is done once its every
// ancestor derivation is recorded, so a later BFS stops where an
// earlier one has been.
type includeWalk struct {
	g        Graph
	out      *Projection
	visited  map[Tuple]bool
	done     marks
	queue    []Tuple
	found    bool
	onDeriv  func(Deriv) bool
	onFirst  func(Deriv) bool
	onSource func(Tuple) bool
	// onStart walks from one start of bp under row.
	bp      *boundPath
	row     Row
	onStart func(Tuple) bool
}

func newIncludeWalk(g Graph, out *Projection) *includeWalk {
	w := &includeWalk{g: g, out: out, visited: map[Tuple]bool{}}
	w.onSource = func(src Tuple) bool {
		if w.done.mark(uint64(src.TupleOrd())) {
			w.queue = append(w.queue, src)
		}
		return true
	}
	w.onFirst = func(Deriv) bool {
		w.found = true
		return false
	}
	w.onDeriv = func(d Deriv) bool {
		w.found = true
		w.out.addDeriv(d)
		g.EachSource(d, w.onSource)
		return true
	}
	w.onStart = func(st Tuple) bool {
		bp, row := w.bp, w.row
		if r := bp.path.Nodes[0].Rel; r != "" && st.TupleRel() != r {
			return true
		}
		if w.out.fresh(st) {
			w.out.Starts = append(w.out.Starts, st.TupleRef())
		}
		if bp.ancestrySuffix(0, row) {
			w.ancestors(st)
			return true
		}
		w.visited[st] = true
		w.walk(bp, 0, st, row)
		delete(w.visited, st)
		return true
	}
	return w
}

// include records the paths matching bp under row. Every candidate
// start tuple is recorded even when no path matches it, and every
// included derivation brings all of its sources and targets — both
// mirroring the interpreter's projection semantics.
func (w *includeWalk) include(bp *boundPath, row Row) error {
	w.bp, w.row = bp, row
	return bp.eachStart(w.g, row, false, w.onStart)
}

// ancestrySuffix reports whether edge i ends the path as <-+ [] under
// row: every derivation backwards-reachable from its tuple is included.
func (bp *boundPath) ancestrySuffix(i int, row Row) bool {
	c := bp.nodeCol[i+1]
	return i == len(bp.path.Edges)-1 && bp.path.Edges[i].Kind == EdgePlus &&
		bp.path.Nodes[i+1].Rel == "" && (c < 0 || row[c] == nil)
}

func (w *includeWalk) walk(bp *boundPath, edgeIdx int, cur Tuple, row Row) bool {
	if edgeIdx == len(bp.path.Edges) {
		return true
	}
	g, visited := w.g, w.visited
	edge := bp.path.Edges[edgeIdx]
	// Fast path for the ubiquitous [$x] <-+ [] suffix: every ancestor
	// derivation is included, so a linear BFS replaces simple-path
	// enumeration (which can be exponential, and matters on cyclic
	// graphs).
	if bp.ancestrySuffix(edgeIdx, row) {
		return w.ancestors(cur)
	}
	matchedAny := false
	switch edge.Kind {
	case EdgeDirect:
		ec := bp.edgeCol[edgeIdx]
		g.EachDerivInto(cur, edge.Mapping, func(d Deriv) bool {
			if ec >= 0 && row[ec] != nil && row[ec] != any(d) {
				return true
			}
			g.EachSource(d, func(src Tuple) bool {
				if visited[src] || !bp.nodeMatches(edgeIdx+1, src, row) {
					return true
				}
				visited[src] = true
				if w.walk(bp, edgeIdx+1, src, row) {
					w.out.addDeriv(d)
					matchedAny = true
				}
				delete(visited, src)
				return true
			})
			return true
		})
	case EdgePlus:
		// Treat <-+ as one step followed by zero-or-more: record a
		// derivation iff its source either matches the next pattern
		// (path ends here) or continues to a successful match.
		var walk func(t Tuple) bool
		walk = func(t Tuple) bool {
			ok := false
			g.EachDerivInto(t, "", func(d Deriv) bool {
				g.EachSource(d, func(src Tuple) bool {
					if visited[src] {
						return true
					}
					visited[src] = true
					endsHere := bp.nodeMatches(edgeIdx+1, src, row) && w.walk(bp, edgeIdx+1, src, row)
					continues := walk(src)
					if endsHere || continues {
						w.out.addDeriv(d)
						ok = true
					}
					delete(visited, src)
					return true
				})
				return true
			})
			return ok
		}
		matchedAny = walk(cur)
	}
	return matchedAny
}

// ancestors records every derivation backwards-reachable from cur,
// reporting whether cur has any. Done tuples are not re-entered: a
// tuple is marked done only by a walk that records its ancestry in
// full, so a repeated start only looks for one derivation.
func (w *includeWalk) ancestors(cur Tuple) bool {
	w.found = false
	if !w.done.mark(uint64(cur.TupleOrd())) {
		w.g.EachDerivInto(cur, "", w.onFirst)
		return w.found
	}
	w.queue = append(w.queue[:0], cur)
	for i := 0; i < len(w.queue); i++ {
		w.g.EachDerivInto(w.queue[i], "", w.onDeriv)
	}
	return w.found
}
