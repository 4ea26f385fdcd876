package physplan

import (
	"repro/internal/model"
	"repro/internal/provgraph"
)

// Tuple is a handle to one tuple node of a provenance store. Handles
// are interned: one store hands out exactly one (pointer-comparable)
// handle per tuple, so interface equality and map keys work as node
// identity throughout the operators.
type Tuple interface {
	// TupleRef identifies the tuple.
	TupleRef() model.TupleRef
	// TupleOrd is a store-wide unique ordinal (dedup/join keys).
	TupleOrd() int
	// TupleRow is the stored row, or nil for dangling references.
	TupleRow() model.Tuple
}

// Deriv is a handle to one derivation node; interned like Tuple.
type Deriv interface {
	// DerivOrd is a store-wide unique ordinal.
	DerivOrd() int
	// DerivMapping names the mapping that fired.
	DerivMapping() string
	// DerivRow is the derivation's provenance row (nil for a node built
	// without one). A store may drop it when the node is removed, so a
	// reader copies it while the store is still pinned.
	DerivRow() model.Tuple
}

// Graph is the provenance-store surface the physical operators run
// over. The materialized provgraph and the goal-directed ASR adapter
// both implement it, so one operator set serves both backends.
//
// Enumeration is callback-style (yield returning false stops early) so
// lazy implementations never build intermediate slices. Implementations
// that can fail mid-enumeration (storage-backed adapters) record the
// first failure and surface it from Err; the engine checks Err after
// draining a plan.
type Graph interface {
	// EachDerivInto enumerates the derivations targeting t — its
	// incoming edges — restricted to one mapping when mapping != ""
	// (the goal-direction hook: storage adapters probe only that
	// mapping's provenance table).
	EachDerivInto(t Tuple, mapping string, yield func(Deriv) bool)
	// EachDerivOf enumerates one mapping's derivations.
	EachDerivOf(mapping string, yield func(Deriv) bool)
	// EachSource enumerates d's source tuples in atom order.
	EachSource(d Deriv, yield func(Tuple) bool)
	// EachTarget enumerates d's target tuples in atom order.
	EachTarget(d Deriv, yield func(Tuple) bool)
	// EachTupleOf enumerates one relation's tuples.
	EachTupleOf(rel string, yield func(Tuple) bool)
	// EachTuple enumerates every tuple.
	EachTuple(yield func(Tuple) bool)
	// TupleByKey is the point lookup behind key-pinned path starts: the
	// tuple EachTupleOf(rel) would yield whose primary key is key (datums
	// in the relation's key order), if there is one.
	TupleByKey(rel string, key []model.Datum) (Tuple, bool)
	// NumTuples, NumTuplesOf, NumDerivations, NumDerivationsOf and
	// SourcePairs are the cardinality statistics the planner's cost
	// model uses; estimates are fine.
	NumTuples() int
	NumTuplesOf(rel string) int
	NumDerivations() int
	NumDerivationsOf(mapping string) int
	// SourcePairs counts (derivation, source) pairs — the fanout
	// numerator.
	SourcePairs() int
	// Err returns the first enumeration failure, or nil.
	Err() error
}

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
	m.G.EachDerivationOf(mapping, func(d *provgraph.DerivNode) bool { return yield(d) })
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
	m.G.EachTupleOf(rel, func(t *provgraph.TupleNode) bool { return yield(t) })
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

// NumTuples implements Graph.
func (m Mem) NumTuples() int { return m.G.NumTuples() }

// NumTuplesOf implements Graph.
func (m Mem) NumTuplesOf(rel string) int { return m.G.NumTuplesOf(rel) }

// NumDerivations implements Graph.
func (m Mem) NumDerivations() int { return m.G.NumDerivations() }

// NumDerivationsOf implements Graph.
func (m Mem) NumDerivationsOf(mapping string) int { return m.G.NumDerivationsOf(mapping) }

// SourcePairs implements Graph.
func (m Mem) SourcePairs() int {
	pairs := 0
	for _, d := range m.G.Derivations() {
		pairs += len(d.Sources)
	}
	return pairs
}

// Err implements Graph; in-memory enumeration cannot fail.
func (m Mem) Err() error { return nil }
