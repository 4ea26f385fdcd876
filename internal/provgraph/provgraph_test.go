package provgraph_test

import (
	"strings"
	"testing"

	"repro/internal/fixture"
	"repro/internal/model"
	"repro/internal/provgraph"
	"repro/internal/semiring"
)

func refO(name string, h int64) model.TupleRef {
	return model.RefFromKey("O", []model.Datum{name, h})
}

func refA(id int64) model.TupleRef {
	return model.RefFromKey("A", []model.Datum{id})
}

func refC(id int64, name string) model.TupleRef {
	return model.RefFromKey("C", []model.Datum{id, name})
}

func refN(id int64, name string, canon bool) model.TupleRef {
	return model.RefFromKey("N", []model.Datum{id, name, canon})
}

func buildExample(t *testing.T, includeM3 bool) *provgraph.Graph {
	t.Helper()
	sys := fixture.MustSystem(fixture.Options{IncludeM3: includeM3})
	g, err := provgraph.Build(sys)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuildRunningExample(t *testing.T) {
	g := buildExample(t, false)
	// Tuples: A(2) + N(3) + C(2) + O(4) = 11.
	if g.NumTuples() != 11 {
		t.Errorf("tuples = %d, want 11", g.NumTuples())
	}
	// Derivations: m1(1) + m2(2) + m4(2) + m5(2) = 7.
	if g.NumDerivations() != 7 {
		t.Errorf("derivations = %d, want 7", g.NumDerivations())
	}
	// Leaves: A(1), A(2), N(1,cn1,false), C(2,cn2).
	leaves := 0
	for _, tn := range g.Tuples() {
		if tn.Leaf {
			leaves++
		}
	}
	if leaves != 4 {
		t.Errorf("leaves = %d, want 4", leaves)
	}
	if provgraph.IsCyclic(g) {
		t.Error("acyclic example classified as cyclic")
	}
	// O(cn2,5) has exactly one derivation (m5); O(sn1,7) one (m4).
	o, ok := g.Lookup(refO("cn2", 5))
	if !ok {
		t.Fatal("missing O(cn2,5)")
	}
	if len(o.Derivations) != 1 || o.Derivations[0].Mapping != "m5" {
		t.Errorf("O(cn2,5) derivations = %v", o.Derivations)
	}
	if len(o.Derivations[0].Sources) != 2 {
		t.Errorf("m5 derivation has %d sources, want 2", len(o.Derivations[0].Sources))
	}
}

func TestEvalDerivability(t *testing.T) {
	g := buildExample(t, false)
	ann, err := provgraph.Eval(g, semiring.Derivability{}, provgraph.EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Every tuple in the materialized instance is derivable.
	for _, tn := range g.Tuples() {
		v, ok := ann.Annotation(tn)
		if !ok || v != true {
			t.Errorf("%v derivability = %v (ok=%v), want true", tn.Ref, v, ok)
		}
	}
}

func TestEvalDerivabilityWithUntrustedLeaf(t *testing.T) {
	g := buildExample(t, false)
	// Drop A(1): tuples depending only on it become underivable.
	ann, err := provgraph.Eval(g, semiring.Derivability{}, provgraph.EvalOptions{
		Leaf: func(tn *provgraph.TupleNode) semiring.Value {
			return tn.Ref != refA(1)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	expectFalse := []model.TupleRef{
		refA(1), refO("sn1", 7), refO("cn1", 7), refC(1, "cn1"), refN(1, "sn1", true),
	}
	for _, ref := range expectFalse {
		tn, ok := g.Lookup(ref)
		if !ok {
			t.Fatalf("missing %v", ref)
		}
		if v, _ := ann.Annotation(tn); v != false {
			t.Errorf("%v should be underivable without A(1)", ref)
		}
	}
	expectTrue := []model.TupleRef{
		refA(2), refO("sn2", 5), refO("cn2", 5), refC(2, "cn2"), refN(1, "cn1", false),
	}
	for _, ref := range expectTrue {
		tn, ok := g.Lookup(ref)
		if !ok {
			t.Fatalf("missing %v", ref)
		}
		if v, _ := ann.Annotation(tn); v != true {
			t.Errorf("%v should stay derivable", ref)
		}
	}
}

func TestEvalTrustWithDistrustedMapping(t *testing.T) {
	// Paper Q7: distrust m4; O tuples derivable only through m4 become
	// untrusted, those with an m5 alternative stay trusted.
	g := buildExample(t, false)
	tr := semiring.Trust{}
	ann, err := provgraph.Eval(g, tr, provgraph.EvalOptions{
		MapFunc: func(m string) semiring.MappingFunc {
			if m == "m4" {
				return semiring.ConstZero(tr)
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for ref, want := range map[model.TupleRef]bool{
		refO("sn1", 7): false, // only via m4
		refO("sn2", 5): false, // only via m4
		refO("cn1", 7): true,  // via m5
		refO("cn2", 5): true,  // via m5
	} {
		tn, _ := g.Lookup(ref)
		if v, _ := ann.Annotation(tn); v != want {
			t.Errorf("trust(%v) = %v, want %v", ref, v, want)
		}
	}
}

func TestEvalCountingNumberOfDerivations(t *testing.T) {
	g := buildExample(t, false)
	ann, err := provgraph.Eval(g, semiring.Counting{}, provgraph.EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// C(2,cn2) is a leaf only (m1 derives only C(1,cn1) here): count 1.
	// O(cn2,5) derived once via m5 from A(2)·C(2,cn2): 1·1 = 1.
	// O(sn1,7): once via m4.
	for ref, want := range map[model.TupleRef]int64{
		refC(2, "cn2"): 1,
		refC(1, "cn1"): 1,
		refO("cn2", 5): 1,
		refO("sn1", 7): 1,
	} {
		tn, _ := g.Lookup(ref)
		if v, _ := ann.Annotation(tn); v != want {
			t.Errorf("count(%v) = %v, want %d", ref, v, want)
		}
	}
}

func TestEvalWeight(t *testing.T) {
	g := buildExample(t, false)
	// Weight 1 per leaf: derived tuple cost = number of leaves joined,
	// cheapest alternative wins.
	ann, err := provgraph.Eval(g, semiring.Weight{}, provgraph.EvalOptions{
		Leaf: func(*provgraph.TupleNode) semiring.Value { return 1.0 },
	})
	if err != nil {
		t.Fatal(err)
	}
	// O(cn1,7) via m5 from A(1) (cost 1) and C(1,cn1) (m1: A(1)+N(1,cn1,false) = 2) → 3.
	tn, _ := g.Lookup(refO("cn1", 7))
	if v, _ := ann.Annotation(tn); v != 3.0 {
		t.Errorf("weight(O(cn1,7)) = %v, want 3", v)
	}
	// N(1,cn1,false) is a leaf → 1.
	tn, _ = g.Lookup(refN(1, "cn1", false))
	if v, _ := ann.Annotation(tn); v != 1.0 {
		t.Errorf("weight(N(1,cn1,false)) = %v, want 1", v)
	}
}

func TestEvalLineageMatchesGraphLineage(t *testing.T) {
	g := buildExample(t, false)
	ann, err := provgraph.Eval(g, semiring.Lineage{}, provgraph.EvalOptions{
		Leaf: func(tn *provgraph.TupleNode) semiring.Value {
			return semiring.NewLineage(tn.Ref.String())
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, root := range []model.TupleRef{refO("cn1", 7), refO("cn2", 5), refO("sn1", 7)} {
		tn, _ := g.Lookup(root)
		v, _ := ann.Annotation(tn)
		ls := v.(semiring.LineageSet)
		want := leafAncestors(g, root)
		if len(ls.IDs) != len(want) {
			t.Errorf("lineage(%v) = %v, graph walk found %v", root, ls.IDs, want)
			continue
		}
		for _, ref := range want {
			if !ls.Contains(ref.String()) {
				t.Errorf("lineage(%v) missing %v", root, ref)
			}
		}
	}
}

// leafAncestors returns the leaf tuples reachable backwards from root,
// root included: Cui-style lineage (use case Q6) by a walk of the graph.
func leafAncestors(g *provgraph.Graph, root model.TupleRef) []model.TupleRef {
	tn, ok := g.Lookup(root)
	if !ok {
		return nil
	}
	seen := map[*provgraph.TupleNode]bool{tn: true}
	var out []model.TupleRef
	for queue := []*provgraph.TupleNode{tn}; len(queue) > 0; queue = queue[1:] {
		if n := queue[0]; n.Leaf {
			out = append(out, n.Ref)
		}
		for _, d := range queue[0].Derivations {
			for _, src := range d.Sources {
				if !seen[src] {
					seen[src] = true
					queue = append(queue, src)
				}
			}
		}
	}
	return out
}

func TestEvalProbabilityEvents(t *testing.T) {
	g := buildExample(t, false)
	ann, err := provgraph.Eval(g, semiring.Probability{}, provgraph.EvalOptions{
		Leaf: func(tn *provgraph.TupleNode) semiring.Value {
			return semiring.VarDNF(tn.Ref.String())
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// O(cn1,7) event: A(1) ∧ (A(1) ∧ N(1,cn1,false)) = A(1) ∧ N(1,cn1,false).
	tn, _ := g.Lookup(refO("cn1", 7))
	v, _ := ann.Annotation(tn)
	event := v.(semiring.DNF)
	want := semiring.VarDNF(refA(1).String()).And(semiring.VarDNF(refN(1, "cn1", false).String()))
	if !semiring.EqDNF(event, want) {
		t.Errorf("event = %s, want %s", event, want)
	}
	probs := map[string]float64{
		refA(1).String():               0.5,
		refN(1, "cn1", false).String(): 0.4,
	}
	p := semiring.ProbabilityOf(event, probs, 0)
	if p != 0.2 {
		t.Errorf("P = %g, want 0.2", p)
	}
}

func TestEvalCyclicFixpoint(t *testing.T) {
	// With m3 the graph is cyclic (C(1,cn1) ⇄ N(1,cn1,false)).
	g := buildExample(t, true)
	if !provgraph.IsCyclic(g) {
		t.Fatal("example with m3 should be cyclic")
	}
	// Cycle-safe semiring: fixpoint converges; everything derivable.
	ann, err := provgraph.Eval(g, semiring.Derivability{}, provgraph.EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tn := range g.Tuples() {
		if v, _ := ann.Annotation(tn); v != true {
			t.Errorf("%v not derivable under fixpoint", tn.Ref)
		}
	}
	// Counting must refuse.
	if _, err := provgraph.Eval(g, semiring.Counting{}, provgraph.EvalOptions{}); err == nil {
		t.Error("counting over a cyclic graph should be rejected")
	}
}

func TestEvalCyclicDropLeaf(t *testing.T) {
	// In the cyclic graph, derivability must not bootstrap itself
	// through the cycle: with N(1,cn1,false) untrusted as a leaf, it is
	// still derivable via m3 from C(1,cn1)? C(1,cn1) needs N(1,cn1,false)
	// via m1 — a pure cycle with no external support collapses to false.
	g := buildExample(t, true)
	ann, err := provgraph.Eval(g, semiring.Derivability{}, provgraph.EvalOptions{
		Leaf: func(tn *provgraph.TupleNode) semiring.Value {
			return tn.Ref != refN(1, "cn1", false)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, ref := range []model.TupleRef{refN(1, "cn1", false), refC(1, "cn1"), refO("cn1", 7)} {
		tn, _ := g.Lookup(ref)
		if v, _ := ann.Annotation(tn); v != false {
			t.Errorf("%v should be false: the derivation cycle has no external support", ref)
		}
	}
	// Independent tuples survive.
	tn, _ := g.Lookup(refO("cn2", 5))
	if v, _ := ann.Annotation(tn); v != true {
		t.Error("O(cn2,5) should remain derivable")
	}
}

func TestWriteDOT(t *testing.T) {
	g := buildExample(t, false)
	var sb strings.Builder
	if err := provgraph.WriteDOT(&sb, g, "fig1"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"digraph provenance", "shape=box", "shape=ellipse", `label="m5"`, `label="+"`} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q", want)
		}
	}
}

func TestEvalConfidentiality(t *testing.T) {
	g := buildExample(t, false)
	// A tuples are secret, others public; any join involving A requires
	// secret clearance.
	ann, err := provgraph.Eval(g, semiring.Confidentiality{}, provgraph.EvalOptions{
		Leaf: func(tn *provgraph.TupleNode) semiring.Value {
			if tn.Ref.Rel == "A" {
				return semiring.Secret
			}
			return semiring.Public
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	tn, _ := g.Lookup(refO("cn1", 7))
	if v, _ := ann.Annotation(tn); v != semiring.Secret {
		t.Errorf("O(cn1,7) confidentiality = %v, want secret", v)
	}
	tn, _ = g.Lookup(refC(2, "cn2"))
	if v, _ := ann.Annotation(tn); v != semiring.Public {
		t.Errorf("C(2,cn2) confidentiality = %v, want public (it is a public leaf)", v)
	}
}

func TestLabelIndexes(t *testing.T) {
	g := buildExample(t, false)
	// Relation index agrees with a full iteration.
	for _, rel := range []string{"O", "A", "C", "N"} {
		want := 0
		for _, tn := range g.Tuples() {
			if tn.Ref.Rel == rel {
				want++
			}
		}
		if got := numTuplesOf(g, rel); got != want {
			t.Errorf("EachTupleOf(%s) yields %d nodes, want %d", rel, got, want)
		}
	}
	// Mapping index agrees with a full iteration and partitions the
	// derivations.
	total := 0
	for _, m := range []string{"m1", "m2", "m4", "m5"} {
		want := 0
		for _, d := range g.Derivations() {
			if d.Mapping == m {
				want++
			}
		}
		got := numDerivationsOf(g, m)
		if got != want {
			t.Errorf("EachDerivationOf(%s) yields %d nodes, want %d", m, got, want)
		}
		total += got
	}
	if total != g.NumDerivations() {
		t.Errorf("mapping index covers %d derivations, graph has %d", total, g.NumDerivations())
	}
}

// numTuplesOf counts the tuple nodes of one relation by its label index.
func numTuplesOf(g *provgraph.Graph, rel string) int {
	n := 0
	g.EachTupleOf(rel, func(*provgraph.TupleNode) bool { n++; return true })
	return n
}

// numDerivationsOf counts the derivation nodes of one mapping by its
// label index.
func numDerivationsOf(g *provgraph.Graph, mapping string) int {
	n := 0
	g.EachDerivationOf(mapping, func(*provgraph.DerivNode) bool { n++; return true })
	return n
}

func TestNodeOrdinalsUnique(t *testing.T) {
	g := buildExample(t, false)
	seenT := map[int]bool{}
	for _, tn := range g.Tuples() {
		if seenT[tn.TupleOrd()] {
			t.Fatalf("duplicate tuple ordinal %d", tn.TupleOrd())
		}
		seenT[tn.TupleOrd()] = true
	}
	seenD := map[int]bool{}
	for _, d := range g.Derivations() {
		if seenD[d.DerivOrd()] {
			t.Fatalf("duplicate derivation ordinal %d", d.DerivOrd())
		}
		seenD[d.DerivOrd()] = true
	}
}

func TestIndexesTrackIncrementalAdds(t *testing.T) {
	g := provgraph.New()
	g.AddDerivation("m#1", "m", []model.TupleRef{refA(1)}, []model.TupleRef{refC(1, "x")})
	if numTuplesOf(g, "A") != 1 || numTuplesOf(g, "C") != 1 {
		t.Fatalf("label index after first add: A=%d C=%d", numTuplesOf(g, "A"), numTuplesOf(g, "C"))
	}
	// Re-adding the same derivation is a no-op everywhere.
	g.AddDerivation("m#1", "m", []model.TupleRef{refA(1)}, []model.TupleRef{refC(1, "x")})
	if numDerivationsOf(g, "m") != 1 {
		t.Fatalf("mapping index after duplicate add: %d", numDerivationsOf(g, "m"))
	}
	g.AddDerivation("m#2", "m", []model.TupleRef{refA(2)}, []model.TupleRef{refC(1, "x")})
	if numDerivationsOf(g, "m") != 2 || numTuplesOf(g, "A") != 2 || numTuplesOf(g, "C") != 1 {
		t.Fatalf("indexes after second add: m=%d A=%d C=%d",
			numDerivationsOf(g, "m"), numTuplesOf(g, "A"), numTuplesOf(g, "C"))
	}
}
