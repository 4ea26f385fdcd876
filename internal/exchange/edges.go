package exchange

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/relstore"
)

// IncomingProbe describes how to find, in one mapping's provenance
// relation, the rows whose derivation produces a given target tuple:
// the reverse-edge access path of goal-directed provenance traversal.
// Every key term of a head atom is either a provenance variable or a
// constant (AtomRefKeys relies on the same invariant), so probing the
// provenance table on Cols with the target's key datums at KeyPos —
// after checking the constant positions — yields exactly the rows
// whose head atom Head reconstructs the target's reference. No other
// row can match: the probe covers every key position.
type IncomingProbe struct {
	Prov *ProvRel
	// Head is the head-atom index within the mapping (multi-head
	// mappings contribute one probe per head atom).
	Head int
	// Cols[i] is the provenance-row column that must equal the target
	// key datum at position KeyPos[i] (an index into the relation's
	// key-column order); Index is the secondary index on Cols.
	Cols   []int
	KeyPos []int
	Index  relstore.Index
	// ConstPos/Consts are the key positions the head atom fixes to
	// constants; a target whose key differs there matches no row.
	ConstPos []int
	Consts   []model.Datum
}

// Matches reports whether the probe's constant key positions agree
// with the target key (datums in the relation's key-column order).
func (p *IncomingProbe) Matches(key []model.Datum) bool {
	for i, kp := range p.ConstPos {
		if !model.Equal(key[kp], p.Consts[i]) {
			return false
		}
	}
	return true
}

// ProbeVals resolves the provenance-column values a matching row must
// hold, parallel to Cols, from the target key, into dst[:0] (the
// caller's scratch).
func (p *IncomingProbe) ProbeVals(dst, key []model.Datum) []model.Datum {
	dst = dst[:0]
	for _, kp := range p.KeyPos {
		dst = append(dst, key[kp])
	}
	return dst
}

// IncomingProbes builds, per target relation, the probe descriptors
// over all mappings and head atoms — the edge index the goal-directed
// ASR backend walks instead of materializing the provenance graph.
func (s *System) IncomingProbes() (map[string][]IncomingProbe, error) {
	probes := make(map[string][]IncomingProbe)
	for _, m := range s.Schema.Mappings() {
		pr, ok := s.Prov[m.Name]
		if !ok {
			return nil, fmt.Errorf("exchange: no provenance relation for mapping %q", m.Name)
		}
		varCol := make(map[string]int, len(pr.Vars))
		for i, v := range pr.Vars {
			varCol[v] = i
		}
		for hi, a := range m.Head {
			r, ok := s.Schema.Relation(a.Rel)
			if !ok {
				return nil, fmt.Errorf("exchange: unknown relation %q in mapping %s", a.Rel, m.Name)
			}
			p := IncomingProbe{Prov: pr, Head: hi}
			for ki, k := range r.Key {
				t := a.Args[k]
				if t.IsConst {
					p.ConstPos = append(p.ConstPos, ki)
					p.Consts = append(p.Consts, t.Const)
					continue
				}
				c, bound := varCol[t.Var]
				if !bound {
					return nil, fmt.Errorf("exchange: mapping %s key var %q not in provenance row", m.Name, t.Var)
				}
				p.Cols = append(p.Cols, c)
				p.KeyPos = append(p.KeyPos, ki)
			}
			p.Index = relstore.IndexOn(p.Cols)
			probes[a.Rel] = append(probes[a.Rel], p)
		}
	}
	return probes, nil
}
