package physplan

import "repro/internal/model"

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
	// without one).
	DerivRow() model.Tuple
}

// Graph is the provenance-store surface the physical operators run
// over. The engine's implementation is the goal-directed adapter over
// the provenance relations of a pinned snapshot (package proql); the
// tests also run the operators over a materialized provgraph.
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
	// Err returns the first enumeration failure, or nil.
	Err() error
}
