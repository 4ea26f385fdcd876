package provgraph_test

import (
	"strings"
	"testing"

	"repro/internal/fixture"
	"repro/internal/model"
	"repro/internal/provgraph"
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
	if isCyclic(g) {
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

// isCyclic reports whether some tuple of g transitively derives
// itself.
func isCyclic(g *provgraph.Graph) bool {
	const onPath, done = 1, 2
	state := map[*provgraph.TupleNode]int{}
	var reaches func(*provgraph.TupleNode) bool
	reaches = func(tn *provgraph.TupleNode) bool {
		switch state[tn] {
		case onPath:
			return true
		case done:
			return false
		}
		state[tn] = onPath
		for _, d := range tn.Derivations {
			for _, src := range d.Sources {
				if reaches(src) {
					return true
				}
			}
		}
		state[tn] = done
		return false
	}
	for _, tn := range g.Tuples() {
		if reaches(tn) {
			return true
		}
	}
	return false
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
