package exchange

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/relstore"
)

// AtomProbe describes how to find, in one mapping's provenance
// relation, the rows whose atom Atom names a given tuple: a head atom's
// probe finds the derivations producing the tuple (the reverse edge of
// goal-directed provenance traversal), a body atom's probe the
// derivations consuming it (the forward edge of deletion propagation).
// Every key term of an atom is either a provenance variable or a
// constant (AtomKey relies on the same invariant), so probing the
// provenance table on Cols with the tuple's key datums at KeyPos —
// after checking the constant positions — yields exactly the rows
// whose atom reconstructs the tuple's reference. No other row can
// match: the probe covers every key position.
type AtomProbe struct {
	Prov *ProvRel
	// Atom indexes the mapping's body atoms then its head atoms
	// (Prov.Sources then Prov.Targets); a multi-head mapping
	// contributes one probe per head atom.
	Atom int
	// Cols[i] is the provenance-row column that must equal the tuple's
	// key datum at position KeyPos[i] (an index into the relation's
	// key-column order); Index is the secondary index on Cols.
	Cols   []int
	KeyPos []int
	Index  relstore.Index
	// ConstPos/Consts are the key positions the atom fixes to
	// constants; a tuple whose key differs there matches no row.
	ConstPos []int
	Consts   []model.Datum
	// Source, for a head atom of a virtual mapping, is the index on
	// the source relation's columns that hold Cols: the derivations
	// producing a tuple are the source rows holding its key there
	// that match the body atom.
	Source relstore.Index
}

// Matches reports whether the probe's constant key positions agree
// with the tuple key (datums in the relation's key-column order).
func (p *AtomProbe) Matches(key []model.Datum) bool {
	for i, kp := range p.ConstPos {
		if !model.Equal(key[kp], p.Consts[i]) {
			return false
		}
	}
	return true
}

// ProbeVals resolves the provenance-column values a matching row must
// hold, parallel to Cols, from the tuple key, into dst[:0] (the
// caller's scratch).
func (p *AtomProbe) ProbeVals(dst, key []model.Datum) []model.Datum {
	dst = dst[:0]
	for _, kp := range p.KeyPos {
		dst = append(dst, key[kp])
	}
	return dst
}

// atomProbes builds, per relation, the probes of every head atom
// producing it (incoming) and of every body atom consuming it (uses),
// over all mappings.
func (s *System) atomProbes() (incoming, uses map[string][]AtomProbe, err error) {
	incoming, uses = make(map[string][]AtomProbe), make(map[string][]AtomProbe)
	for _, m := range s.Schema.Mappings() {
		pr, ok := s.Prov[m.Name]
		if !ok {
			return nil, nil, fmt.Errorf("exchange: no provenance relation for mapping %q", m.Name)
		}
		atoms := append(append([]model.Atom(nil), m.Body...), m.Head...)
		for ai, a := range atoms {
			r, ok := s.Schema.Relation(a.Rel)
			if !ok {
				return nil, nil, fmt.Errorf("exchange: unknown relation %q in mapping %s", a.Rel, m.Name)
			}
			p := AtomProbe{Prov: pr, Atom: ai}
			for ki, k := range r.Key {
				t := a.Args[k]
				if t.IsConst {
					p.ConstPos = append(p.ConstPos, ki)
					p.Consts = append(p.Consts, t.Const)
					continue
				}
				c := pr.varCol(t.Var)
				if c < 0 {
					return nil, nil, fmt.Errorf("exchange: mapping %s key var %q not in provenance row", m.Name, t.Var)
				}
				p.Cols = append(p.Cols, c)
				p.KeyPos = append(p.KeyPos, ki)
			}
			p.Index = relstore.IndexOn(p.Cols)
			if ai < len(m.Body) {
				uses[a.Rel] = append(uses[a.Rel], p)
				continue
			}
			if pr.Virtual {
				src := make([]int, len(p.Cols))
				for i, c := range p.Cols {
					src[i] = pr.srcCols[c]
				}
				p.Source = relstore.IndexOn(src)
			}
			incoming[a.Rel] = append(incoming[a.Rel], p)
		}
	}
	return incoming, uses, nil
}
