package proql

import (
	"context"
	"strings"
	"testing"

	"repro/internal/fixture"
	"repro/internal/semiring"
)

// cyclicEngine builds the running example *with* mapping m3, which
// makes C and N derive each other — a recursive mapping set whose
// Datalog program the relational backend cannot unfold (paper footnote
// 4). The engine must route such queries to the path backend (which
// backend "graph" aliases); its EVALUATE runs the fixpoint evaluation
// of Section 2.1 "Cycles".
func cyclicEngine(t *testing.T) *Engine {
	t.Helper()
	return NewEngine(fixture.MustSystem(fixture.Options{IncludeM3: true}))
}

// nQuery anchors the target query at N, whose backward schema paths
// include the C ⇄ N recursion (anchoring at O stays acyclic: matching
// prunes paths that revisit a relation, so the relational backend
// legitimately handles it).
const nQuery = `FOR [N $x] INCLUDE PATH [$x] <-+ [] RETURN $x`

func TestCyclicCompileRejected(t *testing.T) {
	e := cyclicEngine(t)
	_, err := CompileUnfold(e.Sys, MustParse(nQuery))
	if err == nil {
		t.Fatal("recursive mapping set should not compile for the relational backend")
	}
	if _, ok := err.(*ErrNotRelational); !ok {
		t.Fatalf("error should be ErrNotRelational, got %T: %v", err, err)
	}
}

func TestCyclicFallsBackToGraphBackend(t *testing.T) {
	e := cyclicEngine(t)
	res, err := e.ExecString(nQuery)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Backend != "path" {
		t.Fatalf("backend = %s, want path", res.Stats.Backend)
	}
	// N holds: (1,cn1,false), (1,sn1,true), (2,sn2,true), (2,cn2,false).
	if got := len(res.SortedRefs("x")); got != 4 {
		t.Errorf("bindings = %d, want 4", got)
	}
	// The projection includes the m3 derivations participating in the
	// C ⇄ N cycle.
	foundM3 := false
	for _, d := range res.MustGraph().Derivations() {
		if d.Mapping == "m3" {
			foundM3 = true
		}
	}
	if !foundM3 {
		t.Error("cyclic projection should include m3 derivations")
	}
}

func TestCyclicDerivabilityFixpoint(t *testing.T) {
	e := cyclicEngine(t)
	res, err := e.ExecString(`EVALUATE DERIVABILITY OF { ` + nQuery + ` }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Backend != "path" {
		t.Fatalf("backend = %s, want path", res.Stats.Backend)
	}
	for ref, v := range res.Annotations {
		if v != true {
			t.Errorf("%v should be derivable over the cyclic graph", ref)
		}
	}
}

func TestCyclicCountRejected(t *testing.T) {
	// The counting semiring diverges on cycles; evaluation must refuse
	// rather than loop (Section 2.1: counts may not converge). So must
	// the polynomial semiring, on auto and on the path executor alike.
	e := cyclicEngine(t)
	for _, s := range []string{"COUNT", "POLYNOMIAL"} {
		for _, backend := range []string{"auto", "path"} {
			q := MustParse(`EVALUATE ` + s + ` OF { ` + nQuery + ` }`)
			_, err := e.Exec(context.Background(), q, Options{Backend: backend})
			if err == nil || !strings.Contains(err.Error(), "cyclic") {
				t.Errorf("%s on %s over a cyclic projection: err = %v, want the cyclic refusal", s, backend, err)
			}
		}
	}
}

func TestCyclicTrustWithDistrustedLeaf(t *testing.T) {
	// Dropping N(1,cn1,false)'s leaf support must not let the C ⇄ N
	// cycle bootstrap itself (least-fixpoint semantics).
	e := cyclicEngine(t)
	res, err := e.ExecString(`EVALUATE TRUST OF {
		FOR [C $x] INCLUDE PATH [$x] <-+ [] RETURN $x
	} ASSIGNING EACH leaf_node $y {
		CASE $y in N : SET false
		DEFAULT : SET true
	}`)
	if err != nil {
		t.Fatal(err)
	}
	refC1 := refC(1, "cn1")
	v, ok := res.Annotations[refC1]
	if !ok {
		t.Fatal("missing annotation for C(1,cn1)")
	}
	if v != false {
		t.Errorf("C(1,cn1) should be untrusted: its only support cycles through the distrusted N leaf, got %v",
			res.Semiring.Format(v))
	}
	// C(2,cn2) is itself a trusted leaf.
	if v := res.Annotations[refC(2, "cn2")]; v != true {
		t.Errorf("C(2,cn2) should stay trusted, got %v", v)
	}
}

func TestCyclicLineage(t *testing.T) {
	e := cyclicEngine(t)
	res, err := e.ExecString(`EVALUATE LINEAGE OF {
		FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x }`)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := res.Annotations[refO("cn1", 7)]
	if !ok {
		t.Fatal("missing annotation")
	}
	ls := v.(semiring.LineageSet)
	if !ls.Contains(refA(1).String()) {
		t.Errorf("lineage should include A(1): %v", ls.IDs)
	}
}
