// Package provgraph implements the provenance graph model of Figure 1:
// a bipartite graph of tuple nodes and derivation nodes, built from the
// relationally-encoded provenance of an exchange.System or linked from
// a query's recorded projection, with DOT export for interactive
// provenance browsers. It evaluates no annotations: the query
// executors compute EVALUATE's semiring values (Section 2.1) from what
// a query read.
package provgraph

import (
	"fmt"
	"sync/atomic"

	"repro/internal/exchange"
	"repro/internal/model"
)

// TupleNode is a rectangle of Figure 1: one tuple in some relation.
type TupleNode struct {
	Ref model.TupleRef
	// ord is the node's graph-wide insertion ordinal; see TupleOrd.
	ord int
	// Row is the full tuple when available (used for labels and leaf
	// CASE conditions); may be nil for dangling references.
	Row model.Tuple
	// Leaf reports a local contribution ('+' node): the tuple appears
	// in its relation's local-contribution table.
	Leaf bool
	// Derivations are the derivation nodes targeting this tuple
	// (alternative ways it was derived — combined with ⊕).
	Derivations []*DerivNode
}

// TupleRef implements the physplan tuple-handle surface.
func (t *TupleNode) TupleRef() model.TupleRef { return t.Ref }

// TupleRel implements the physplan tuple-handle surface.
func (t *TupleNode) TupleRel() string { return t.Ref.Rel }

// TupleOrd returns the node's insertion ordinal, unique across the
// tuple nodes of one graph: a collision-free, allocation-cheap
// deduplication and join key (the physplan tuple-handle surface).
func (t *TupleNode) TupleOrd() int { return t.ord }

// TupleRow implements the physplan tuple-handle surface.
func (t *TupleNode) TupleRow() model.Tuple { return t.Row }

// DerivNode is an ellipse of Figure 1: one firing of a mapping,
// relating its m source tuples to its n target tuples.
type DerivNode struct {
	// ord is the node's graph-wide insertion ordinal; see DerivOrd.
	ord int
	// ID is unique within the graph: mapping name + provenance row key.
	ID      string
	Mapping string
	Sources []*TupleNode
	Targets []*TupleNode
	// ProvRow is the backing provenance-relation row when the graph
	// was built from storage.
	ProvRow model.Tuple
}

// Graph is a provenance graph. Beyond the node maps it maintains the
// secondary indexes the ProQL physical operators rely on: tuples
// grouped by relation (label index) and derivations grouped by mapping,
// so path steps are index lookups instead of full-graph scans. The
// per-node adjacency (tuple→derivations in both directions) lives on
// the nodes themselves as Derivations/Uses.
type Graph struct {
	tuples map[model.TupleRef]*TupleNode
	derivs map[string]*DerivNode
	// insertion order for deterministic iteration; a node's ordinal is
	// its position here
	tupleOrder []*TupleNode
	derivOrder []*DerivNode
	// byRel indexes tuple nodes by relation name, in insertion order.
	byRel map[string][]*TupleNode
	// byMapping indexes derivation nodes by mapping name, in insertion
	// order.
	byMapping map[string][]*DerivNode
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		tuples:    make(map[model.TupleRef]*TupleNode),
		derivs:    make(map[string]*DerivNode),
		byRel:     make(map[string][]*TupleNode),
		byMapping: make(map[string][]*DerivNode),
	}
}

// Tuple returns the node for ref, creating it if needed.
func (g *Graph) Tuple(ref model.TupleRef) *TupleNode {
	if n, ok := g.tuples[ref]; ok {
		return n
	}
	n := &TupleNode{Ref: ref, ord: len(g.tupleOrder)}
	g.tuples[ref] = n
	g.tupleOrder = append(g.tupleOrder, n)
	g.byRel[ref.Rel] = append(g.byRel[ref.Rel], n)
	return n
}

// Lookup returns the node for ref without creating it.
func (g *Graph) Lookup(ref model.TupleRef) (*TupleNode, bool) {
	n, ok := g.tuples[ref]
	return n, ok
}

// AddDerivation inserts a derivation node relating sources to targets.
// Re-adding an existing ID is a no-op returning the existing node.
func (g *Graph) AddDerivation(id, mapping string, sources, targets []model.TupleRef) *DerivNode {
	if d, ok := g.derivs[id]; ok {
		return d
	}
	d := &DerivNode{ID: id, Mapping: mapping, ord: len(g.derivOrder)}
	for _, ref := range sources {
		d.Sources = append(d.Sources, g.Tuple(ref))
	}
	for _, ref := range targets {
		tn := g.Tuple(ref)
		d.Targets = append(d.Targets, tn)
		tn.Derivations = append(tn.Derivations, d)
	}
	g.derivs[id] = d
	g.derivOrder = append(g.derivOrder, d)
	g.byMapping[mapping] = append(g.byMapping[mapping], d)
	return d
}

// DerivOrd returns the node's insertion ordinal, unique across the
// derivation nodes of one graph (the physplan derivation-handle
// surface).
func (d *DerivNode) DerivOrd() int { return d.ord }

// DerivMapping implements the physplan derivation-handle surface.
func (d *DerivNode) DerivMapping() string { return d.Mapping }

// DerivRow implements the physplan derivation-handle surface.
func (d *DerivNode) DerivRow() model.Tuple { return d.ProvRow }

// Tuples returns the tuple nodes in insertion order. The slice is the
// graph's own; callers must not modify it.
func (g *Graph) Tuples() []*TupleNode { return g.tupleOrder }

// Derivations returns the derivation nodes in insertion order. The
// slice is the graph's own; callers must not modify it.
func (g *Graph) Derivations() []*DerivNode { return g.derivOrder }

// NumTuples returns the tuple-node count.
func (g *Graph) NumTuples() int { return len(g.tuples) }

// NumDerivations returns the derivation-node count.
func (g *Graph) NumDerivations() int { return len(g.derivs) }

// EachTupleOf yields the relation's tuple nodes in insertion order,
// straight from the label index without copying or sorting.
func (g *Graph) EachTupleOf(rel string, yield func(*TupleNode) bool) {
	for _, n := range g.byRel[rel] {
		if !yield(n) {
			return
		}
	}
}

// EachDerivationOf yields the derivation nodes of one mapping in
// insertion order, straight from the mapping index.
func (g *Graph) EachDerivationOf(mapping string, yield func(*DerivNode) bool) {
	for _, d := range g.byMapping[mapping] {
		if !yield(d) {
			return
		}
	}
}

// buildCount counts full-graph materializations; see Builds.
var buildCount atomic.Int64

// Builds returns the number of Build calls since process start. Tests
// use the delta to assert that goal-directed backends never pay a
// whole-graph materialization.
func Builds() int64 { return buildCount.Load() }

// Build constructs the full provenance graph of an exchanged system:
// one derivation node per provenance-relation row (materialized or
// virtual), plus leaf marks from the local-contribution tables.
func Build(sys *exchange.System) (*Graph, error) {
	buildCount.Add(1)
	g := New()
	for _, m := range sys.Schema.Mappings() {
		pr := sys.Prov[m.Name]
		rows, err := sys.ProvRows(m.Name)
		if err != nil {
			return nil, err
		}
		for _, row := range rows {
			sources, targets := sys.AtomRefs(pr, row)
			id := derivID(m.Name, row)
			d := g.AddDerivation(id, m.Name, sources, targets)
			d.ProvRow = row
		}
	}
	// Attach full rows and leaf marks, and register tuples that exist
	// only as local contributions (they never appear in a provenance
	// row but are part of the instance).
	for _, r := range sys.Schema.PublicRelations() {
		t, ok := sys.DB.Table(r.Name)
		if !ok {
			return nil, fmt.Errorf("provgraph: missing table %q", r.Name)
		}
		t.Iterate(func(row model.Tuple) bool {
			ref := model.NewTupleRef(r, row)
			tn := g.Tuple(ref)
			if tn.Row == nil {
				tn.Row = row
			}
			tn.Leaf = sys.IsLeafRef(ref)
			return true
		})
	}
	return g, nil
}

func derivID(mapping string, row model.Tuple) string {
	return mapping + "#" + model.EncodeDatums(row)
}

// DerivIDFor returns the canonical derivation-node ID for one
// provenance row of a mapping. Goal-directed backends that never build
// the graph use it to mint IDs identical to Build's, so projected
// subgraphs and annotations agree across backends.
func DerivIDFor(mapping string, row model.Tuple) string { return derivID(mapping, row) }
