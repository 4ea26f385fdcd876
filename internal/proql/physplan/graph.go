package physplan

import "repro/internal/model"

// Tuple is a handle to one tuple node of a provenance store. Handles
// are interned per query: while one plan runs, its Graph hands out
// exactly one (pointer-comparable) handle per tuple, so interface
// equality and map keys work as node identity throughout the
// operators. Two queries may hand out different handles, and different
// ordinals, for one tuple.
type Tuple interface {
	// TupleRef identifies the tuple.
	TupleRef() model.TupleRef
	// TupleRel is TupleRef().Rel, without encoding the key.
	TupleRel() string
	// TupleOrd is an ordinal unique among the handles of one query
	// (dedup/join keys).
	TupleOrd() int
	// TupleRow is the stored row, or nil for dangling references.
	TupleRow() model.Tuple
}

// Deriv is a handle to one derivation node; interned like Tuple.
type Deriv interface {
	// DerivOrd is an ordinal unique among the handles of one query.
	DerivOrd() int
	// DerivMapping names the mapping that fired.
	DerivMapping() string
	// DerivRow is the derivation's provenance row (nil for a node built
	// without one).
	DerivRow() model.Tuple
}

// Graph is the provenance-store surface the physical operators run
// over. The engine's implementation is a per-query view over the
// provenance relations of a pinned snapshot (package proql); the tests
// also run the operators over a materialized provgraph.
//
// Enumeration is callback-style (yield returning false stops early) so
// lazy implementations never build intermediate slices. Implementations
// that can fail mid-enumeration (storage-backed views) record the
// first failure and surface it from Err; the engine checks Err after
// draining a plan.
type Graph interface {
	// EachDerivInto enumerates the derivations targeting t — its
	// incoming edges — restricted to one mapping when mapping != ""
	// (the goal-direction hook: storage views probe only that
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
