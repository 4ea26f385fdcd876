package physplan

import (
	"repro/internal/model"
	"repro/internal/provgraph"
)

// Mem adapts a materialized *provgraph.Graph to the Graph interface:
// handles are the graph's own node pointers, enumeration walks the
// adjacency slices directly.
type Mem struct {
	G *provgraph.Graph
}

// NewMem wraps a materialized provenance graph.
func NewMem(g *provgraph.Graph) Mem { return Mem{G: g} }

// EachDerivInto implements Graph.
func (m Mem) EachDerivInto(t Tuple, mapping string, yield func(Deriv) bool) {
	for _, d := range t.(*provgraph.TupleNode).Derivations {
		if mapping != "" && d.Mapping != mapping {
			continue
		}
		if !yield(d) {
			return
		}
	}
}

// EachDerivOf implements Graph.
func (m Mem) EachDerivOf(mapping string, yield func(Deriv) bool) {
	for _, d := range m.G.Derivations() {
		if d.Mapping == mapping && !yield(d) {
			return
		}
	}
}

// EachSource implements Graph.
func (m Mem) EachSource(d Deriv, yield func(Tuple) bool) {
	for _, s := range d.(*provgraph.DerivNode).Sources {
		if !yield(s) {
			return
		}
	}
}

// EachTarget implements Graph.
func (m Mem) EachTarget(d Deriv, yield func(Tuple) bool) {
	for _, t := range d.(*provgraph.DerivNode).Targets {
		if !yield(t) {
			return
		}
	}
}

// EachTupleOf implements Graph.
func (m Mem) EachTupleOf(rel string, yield func(Tuple) bool) {
	for _, t := range m.G.Tuples() {
		if t.Ref.Rel == rel && !yield(t) {
			return
		}
	}
}

// EachTuple implements Graph.
func (m Mem) EachTuple(yield func(Tuple) bool) {
	for _, t := range m.G.Tuples() {
		if !yield(t) {
			return
		}
	}
}

// TupleByKey implements Graph.
func (m Mem) TupleByKey(rel string, key []model.Datum) (Tuple, bool) {
	// A missing node must come back as a nil Tuple, not a nil pointer in one.
	if t, ok := m.G.Lookup(model.RefFromKey(rel, key)); ok {
		return t, true
	}
	return nil, false
}

// Err implements Graph; in-memory enumeration cannot fail.
func (m Mem) Err() error { return nil }
