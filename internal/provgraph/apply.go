// Incremental graph maintenance: rather than rebuilding the whole
// provenance graph after an update (Build is proportional to the
// database), the hooks below patch exactly the nodes a report says
// changed, keeping the adjacency and the label/mapping indexes
// coherent. Apply removes what an exchange.MaintenanceReport says a
// deletion propagated away; ApplyInsertions adds what an
// exchange.InsertionReport says a Δ-seeded RunDelta derived — the
// graph-side counterparts of the two delta-driven propagators.

package provgraph

import (
	"fmt"

	"repro/internal/exchange"
	"repro/internal/model"
)

// Apply updates a built graph in place after an incremental deletion:
// the report's deleted derivations and tuples are removed (with their
// adjacency), and the leaf marks of surviving tuples whose local
// contribution was deleted are cleared.
func Apply(g *Graph, sys *exchange.System, report *exchange.MaintenanceReport) {
	if report == nil {
		return
	}
	var deadD []*DerivNode
	for _, dd := range report.DeletedDerivations {
		if d, ok := g.derivs[derivID(dd.Mapping, dd.Row)]; ok {
			deadD = append(deadD, d)
		}
	}
	var deadT []*TupleNode
	for _, ref := range report.DeletedTuples {
		if tn, ok := g.tuples[ref]; ok {
			deadT = append(deadT, tn)
		}
	}
	g.removeBatch(deadT, deadD)
	// A deleted local contribution demotes a surviving tuple from leaf
	// status (it may remain derivable through mappings).
	for _, ref := range report.DeletedLocals {
		if tn, ok := g.tuples[ref]; ok {
			tn.Leaf = sys.IsLeafRef(ref)
		}
	}
}

// ApplyInsertions updates a built graph in place after an incremental
// insertion (exchange.System.RunDelta): the report's new public tuples
// become tuple nodes (with rows and leaf marks), its new derivations
// become derivation nodes wired to their source and target tuples, and
// surviving tuples that gained a local contribution are re-marked as
// leaves. Reports with Full set carry no insertion lists (the run
// reseeded everything); callers holding one must rebuild instead —
// ApplyInsertions reports false in that case and leaves the graph
// untouched.
func ApplyInsertions(g *Graph, sys *exchange.System, report *exchange.InsertionReport) (bool, error) {
	if report == nil {
		return true, nil
	}
	if report.Full {
		return false, nil
	}
	for _, it := range report.InsertedTuples {
		tn := g.Tuple(it.Ref)
		if tn.Row == nil {
			tn.Row = it.Row
		}
		tn.Leaf = sys.IsLeafRef(it.Ref)
	}
	for _, id := range report.InsertedDerivations {
		pr, ok := sys.Prov[id.Mapping]
		if !ok {
			return false, fmt.Errorf("provgraph: insertion report names unknown mapping %q", id.Mapping)
		}
		sources, targets, err := sys.AtomRefs(pr, id.Row)
		if err != nil {
			return false, err
		}
		d := g.AddDerivation(derivID(id.Mapping, id.Row), id.Mapping, sources, targets)
		if d.ProvRow == nil {
			d.ProvRow = id.Row
		}
	}
	// A new local contribution promotes a surviving tuple to leaf
	// status (new tuples already got their mark above).
	for _, ref := range report.InsertedLocals {
		if tn, ok := g.tuples[ref]; ok {
			tn.Leaf = sys.IsLeafRef(ref)
		}
	}
	return true, nil
}

// RemoveDerivation deletes one derivation node, splicing it out of its
// source and target tuples' adjacency and the mapping index. It
// reports whether the node existed.
func (g *Graph) RemoveDerivation(id string) bool {
	d, ok := g.derivs[id]
	if ok {
		g.removeBatch(nil, []*DerivNode{d})
	}
	return ok
}

// RemoveTuple deletes one tuple node together with every derivation
// touching it (a derivation without one of its tuples is meaningless),
// keeping all indexes coherent. It reports whether the node existed.
func (g *Graph) RemoveTuple(ref model.TupleRef) bool {
	tn, ok := g.tuples[ref]
	if ok {
		g.removeBatch([]*TupleNode{tn}, nil)
	}
	return ok
}

// removeBatch removes the given nodes of g, and with each tuple the
// derivations incident to it. The work is proportional to the removed
// nodes and the adjacency of their surviving neighbours, not to the
// graph: a removed node is flagged dead, dropped from the registry,
// emptied (a dead slot then holds a bare node, not rows and adjacency)
// and left for its order and label lists to compact (see nodeList).
// Node ordinals are never reused, so ordinal-keyed consumers stay
// collision-free.
func (g *Graph) removeBatch(deadT []*TupleNode, deadD []*DerivNode) {
	for _, tn := range deadT {
		if tn.dead {
			continue
		}
		tn.dead = true
		delete(g.tuples, tn.Ref)
		g.tupleOrder.dropped()
		g.byRel[tn.Ref.Rel].dropped()
		deadD = append(deadD, tn.Derivations...)
		deadD = append(deadD, tn.Uses...)
		tn.Row, tn.Derivations, tn.Uses = nil, nil, nil
	}
	// Surviving tuples lose the dead derivations from their adjacency,
	// each filtered once however many of its derivations died.
	touched := make(map[*TupleNode]struct{})
	for _, d := range deadD {
		if d.dead {
			continue
		}
		d.dead = true
		delete(g.derivs, d.ID)
		g.derivOrder.dropped()
		g.byMapping[d.Mapping].dropped()
		for _, tn := range d.Sources {
			if !tn.dead {
				touched[tn] = struct{}{}
			}
		}
		for _, tn := range d.Targets {
			if !tn.dead {
				touched[tn] = struct{}{}
			}
		}
		d.Sources, d.Targets, d.ProvRow = nil, nil, nil
	}
	for tn := range touched {
		tn.Uses = liveDerivs(tn.Uses)
		tn.Derivations = liveDerivs(tn.Derivations)
	}
}

// liveDerivs drops every dead derivation from list in place.
func liveDerivs(list []*DerivNode) []*DerivNode {
	kept := list[:0]
	for _, d := range list {
		if !d.dead {
			kept = append(kept, d)
		}
	}
	clear(list[len(kept):])
	return kept
}
