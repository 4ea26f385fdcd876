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
