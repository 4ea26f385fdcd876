package exchange

import (
	"repro/internal/model"
)

// supportIndex is the persistent ref→derivation adjacency the delta-
// driven deletion propagator walks: for every derivation recorded in a
// provenance relation (materialized or virtual) it keeps the source and
// target tuples, and for every tuple the derivations using it as a
// source (uses) and producing it as a target (incoming).
//
// Tuples are interned to dense int32 ids (per-relation maps from the
// canonical key encoding), so the exchange hook adds a derivation with
// one map probe per atom — no TupleRef materialization on the hot path
// — and the propagation worklist runs on integer ids. The adjacency
// lists are intrusive linked lists over one shared edge pool: appending
// an edge never allocates per tuple, only the two flat pool arrays grow
// (the exchange hook runs once per derivation, so GC pressure here is
// what the engine-comparison benchmarks see).
//
// The index is built once per System — populated by the exchange hooks
// as Run enumerates derivations, or rebuilt from the provenance tables
// on demand — and kept coherent by DeleteLocal as propagation removes
// tuples and derivations, so a deletion never re-reads the provenance
// tables: its cost scales with the affected subgraph, not the database.
type supportIndex struct {
	// refs maps tuple id → ref; ids are never reclaimed (a deleted
	// tuple's id is reused if the tuple is ever re-derived).
	refs  []model.TupleRef
	byRel map[string]map[string]int32
	// usesHead and incomingHead are per-tuple heads (-1 = empty) into
	// the shared edge pool below. A derivation whose body references
	// the same tuple twice appears twice in that tuple's uses chain,
	// mirroring the per-occurrence pending counts of the propagation
	// worklist. Chains are LIFO (most recent derivation first).
	usesHead     []int32
	incomingHead []int32
	edgeDeriv    []int32 // edge → derivation index
	edgeNext     []int32 // edge → next edge in the same chain, or -1

	derivs []derivEntry
	// atomPool backs every entry's source/target ids (entries address
	// it by offset), so adding a derivation allocates nothing beyond
	// amortized pool growth.
	atomPool []int32
	// free lists tombstoned derivation slots for reuse; edgeFree lists
	// edges unlink spliced out of their chains, and atomFree lists
	// vacated atomPool segments per segment length. With all three
	// recycled, a system under sustained delete/re-derive churn grows
	// the pools with the live derivation count, not the total churn.
	free     []int32
	edgeFree []int32
	atomFree map[uint16][]int32
	// virtSeen dedups virtual derivations across re-runs by encoded
	// provenance row; materialized mappings dedup through their
	// provenance table's set semantics instead.
	virtSeen map[string]map[string]bool
}

func newSupportIndex() *supportIndex {
	return &supportIndex{
		byRel:    make(map[string]map[string]int32),
		virtSeen: make(map[string]map[string]bool),
		atomFree: make(map[uint16][]int32),
	}
}

// derivEntry is one derivation node: a provenance-relation row plus the
// tuple ids it relates, stored as an atomPool segment of nAtoms ids of
// which the first nSources are body (source) tuples.
type derivEntry struct {
	mapping  string
	row      model.Tuple
	atomOff  int32
	nAtoms   uint16
	nSources uint16
	virtual  bool
	dead     bool
}

// sources and targets return an entry's id segments; the returned
// slices alias atomPool and must not be retained across adds.
func (ix *supportIndex) sources(d *derivEntry) []int32 {
	return ix.atomPool[d.atomOff : d.atomOff+int32(d.nSources)]
}

func (ix *supportIndex) targets(d *derivEntry) []int32 {
	return ix.atomPool[d.atomOff+int32(d.nSources) : d.atomOff+int32(d.nAtoms)]
}

// tupleID interns the tuple of rel with the given encoded key, passed
// as a scratch buffer: the probe allocates nothing when the tuple is
// already known.
func (ix *supportIndex) tupleID(rel string, encKey []byte) int32 {
	m := ix.byRel[rel]
	if m == nil {
		m = make(map[string]int32)
		ix.byRel[rel] = m
	}
	if id, ok := m[string(encKey)]; ok {
		return id
	}
	return ix.intern(m, model.TupleRef{Rel: rel, Key: string(encKey)})
}

// tupleIDRef is tupleID for callers already holding a TupleRef.
func (ix *supportIndex) tupleIDRef(ref model.TupleRef) int32 {
	m := ix.byRel[ref.Rel]
	if m == nil {
		m = make(map[string]int32)
		ix.byRel[ref.Rel] = m
	}
	if id, ok := m[ref.Key]; ok {
		return id
	}
	return ix.intern(m, ref)
}

func (ix *supportIndex) intern(m map[string]int32, ref model.TupleRef) int32 {
	id := int32(len(ix.refs))
	m[ref.Key] = id
	ix.refs = append(ix.refs, ref)
	ix.usesHead = append(ix.usesHead, -1)
	ix.incomingHead = append(ix.incomingHead, -1)
	return id
}

// markVirtual records a virtual derivation's encoded row, reporting
// whether it was new.
func (ix *supportIndex) markVirtual(mapping string, row model.Tuple) bool {
	seen := ix.virtSeen[mapping]
	if seen == nil {
		seen = make(map[string]bool)
		ix.virtSeen[mapping] = seen
	}
	enc := model.EncodeDatums(row)
	if seen[enc] {
		return false
	}
	seen[enc] = true
	return true
}

// add inserts a derivation entry relating atomIDs[:nSources] (body
// tuples) to atomIDs[nSources:] (head tuples) and links it into their
// chains. atomIDs may be a scratch buffer; it is copied. Callers are
// responsible for dedup (provenance-table insert result, or
// markVirtual).
func (ix *supportIndex) add(mapping string, virtual bool, row model.Tuple, atomIDs []int32, nSources int) {
	var off int32
	if fl := ix.atomFree[uint16(len(atomIDs))]; len(fl) > 0 {
		off = fl[len(fl)-1]
		ix.atomFree[uint16(len(atomIDs))] = fl[:len(fl)-1]
		copy(ix.atomPool[off:], atomIDs)
	} else {
		off = int32(len(ix.atomPool))
		ix.atomPool = append(ix.atomPool, atomIDs...)
	}
	e := derivEntry{
		mapping:  mapping,
		virtual:  virtual,
		row:      row,
		atomOff:  off,
		nAtoms:   uint16(len(atomIDs)),
		nSources: uint16(nSources),
	}
	var di int32
	if n := len(ix.free); n > 0 {
		di = ix.free[n-1]
		ix.free = ix.free[:n-1]
		ix.derivs[di] = e
	} else {
		di = int32(len(ix.derivs))
		ix.derivs = append(ix.derivs, e)
	}
	for _, t := range atomIDs[:nSources] {
		ix.usesHead[t] = ix.newEdge(di, ix.usesHead[t])
	}
	for _, t := range atomIDs[nSources:] {
		ix.incomingHead[t] = ix.newEdge(di, ix.incomingHead[t])
	}
}

func (ix *supportIndex) newEdge(di, next int32) int32 {
	if n := len(ix.edgeFree); n > 0 {
		e := ix.edgeFree[n-1]
		ix.edgeFree = ix.edgeFree[:n-1]
		ix.edgeDeriv[e] = di
		ix.edgeNext[e] = next
		return e
	}
	e := int32(len(ix.edgeDeriv))
	ix.edgeDeriv = append(ix.edgeDeriv, di)
	ix.edgeNext = append(ix.edgeNext, next)
	return e
}

// remove deletes a derivation entry, unlinking every occurrence of it
// from its tuples' chains (returning the edges and the atomPool
// segment to their free lists) and releasing its virtual-dedup mark
// (so a re-derivation after a later insert re-enters the index).
func (ix *supportIndex) remove(di int32) {
	d := &ix.derivs[di]
	if d.dead {
		return
	}
	for _, t := range ix.sources(d) {
		ix.unlink(ix.usesHead, t, di)
	}
	for _, t := range ix.targets(d) {
		ix.unlink(ix.incomingHead, t, di)
	}
	if d.virtual {
		if seen := ix.virtSeen[d.mapping]; seen != nil {
			delete(seen, model.EncodeDatums(d.row))
		}
	}
	if d.nAtoms > 0 {
		ix.atomFree[d.nAtoms] = append(ix.atomFree[d.nAtoms], d.atomOff)
	}
	*d = derivEntry{dead: true}
	ix.free = append(ix.free, di)
}

// unlink removes every edge referencing di from head[t]'s chain,
// returning spliced-out edges to the free list.
func (ix *supportIndex) unlink(head []int32, t, di int32) {
	p := &head[t]
	for *p != -1 {
		e := *p
		if ix.edgeDeriv[e] == di {
			*p = ix.edgeNext[e]
			ix.edgeFree = append(ix.edgeFree, e)
		} else {
			p = &ix.edgeNext[e]
		}
	}
}

// live reports the number of live derivation entries (tests).
func (ix *supportIndex) live() int { return len(ix.derivs) - len(ix.free) }
