package provgraph_test

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"testing"

	"repro/internal/exchange"
	"repro/internal/fixture"
	"repro/internal/model"
	"repro/internal/proql"
	"repro/internal/provgraph"
	"repro/internal/semiring"
)

// The Figure 1 graph's annotations as Section 2.1 defines them, values
// computed by hand, checked on the evaluators the product serves: each
// case runs ProQL EVALUATE over whole ancestries on the path executor
// (asr) and on the relational translation.

var allRels = []string{"A", "C", "N", "O"}

// annotate runs EVALUATE sr with the ASSIGNING clauses assign over the
// whole ancestry of every tuple of rels on one backend, and returns
// the annotations of those tuples. It returns nil where the relational
// translation does not cover a query (the recursive mapping set of the
// cyclic example, anchored at C or N).
func annotate(t *testing.T, sys *exchange.System, backend, sr, assign string, rels ...string) map[model.TupleRef]semiring.Value {
	t.Helper()
	eng := proql.NewEngine(sys)
	ann := map[model.TupleRef]semiring.Value{}
	for _, rel := range rels {
		text := fmt.Sprintf("EVALUATE %s OF { FOR [%s $x] INCLUDE PATH [$x] <-+ [] RETURN $x }%s", sr, rel, assign)
		res, err := eng.Eval(context.Background(), proql.MustParse(text), proql.Options{Backend: backend})
		var nr *proql.ErrNotRelational
		if backend == "relational" && errors.As(err, &nr) {
			return nil
		}
		if err != nil {
			t.Fatalf("%s on %s: %v", text, backend, err)
		}
		maps.Copy(ann, res.Annotations)
	}
	return ann
}

// expect checks the annotations of the listed tuples.
func expect[V comparable](t *testing.T, label string, ann map[model.TupleRef]semiring.Value, want map[model.TupleRef]V) {
	t.Helper()
	for ref, w := range want {
		if v, ok := ann[ref]; !ok || v != semiring.Value(w) {
			t.Errorf("%s: %v = %v (present %v), want %v", label, ref, v, ok, w)
		}
	}
}

var backends = []string{"asr", "relational"}

func TestEvalDerivability(t *testing.T) {
	sys := fixture.MustSystem(fixture.Options{})
	for _, backend := range backends {
		ann := annotate(t, sys, backend, "DERIVABILITY", "", allRels...)
		// Every tuple in the materialized instance is derivable:
		// A(2) + N(3) + C(2) + O(4).
		if len(ann) != 11 {
			t.Errorf("%s: %d tuples annotated, want 11", backend, len(ann))
		}
		for ref, v := range ann {
			if v != true {
				t.Errorf("%s: %v derivability = %v, want true", backend, ref, v)
			}
		}
	}
}

func TestEvalDerivabilityWithUntrustedLeaf(t *testing.T) {
	// Drop A(1): tuples depending only on it become underivable.
	sys := fixture.MustSystem(fixture.Options{})
	for _, backend := range backends {
		ann := annotate(t, sys, backend, "DERIVABILITY",
			` ASSIGNING EACH leaf_node $y { CASE $y IN A AND $y.id = 1 : SET false DEFAULT : SET true }`, allRels...)
		expect(t, backend, ann, map[model.TupleRef]bool{
			refA(1): false, refO("sn1", 7): false, refO("cn1", 7): false, refC(1, "cn1"): false, refN(1, "sn1", true): false,
			refA(2): true, refO("sn2", 5): true, refO("cn2", 5): true, refC(2, "cn2"): true, refN(1, "cn1", false): true,
		})
	}
}

func TestEvalTrustWithDistrustedMapping(t *testing.T) {
	// Paper Q7: distrust m4; O tuples derivable only through m4 become
	// untrusted, those with an m5 alternative stay trusted.
	sys := fixture.MustSystem(fixture.Options{})
	for _, backend := range backends {
		ann := annotate(t, sys, backend, "TRUST",
			` ASSIGNING EACH mapping $p($z) { CASE $p = m4 : SET false DEFAULT : SET $z }`, "O")
		expect(t, backend, ann, map[model.TupleRef]bool{
			refO("sn1", 7): false, // only via m4
			refO("sn2", 5): false, // only via m4
			refO("cn1", 7): true,  // via m5
			refO("cn2", 5): true,  // via m5
		})
	}
}

func TestEvalCountingNumberOfDerivations(t *testing.T) {
	// C(2,cn2) is a leaf only (m1 derives only C(1,cn1) here): count 1.
	// O(cn2,5) derived once via m5 from A(2)·C(2,cn2): 1·1 = 1.
	// O(sn1,7): once via m4.
	sys := fixture.MustSystem(fixture.Options{})
	for _, backend := range backends {
		ann := annotate(t, sys, backend, "COUNT", "", "C", "O")
		expect(t, backend, ann, map[model.TupleRef]int64{
			refC(2, "cn2"): 1,
			refC(1, "cn1"): 1,
			refO("cn2", 5): 1,
			refO("sn1", 7): 1,
		})
	}
}

func TestEvalWeight(t *testing.T) {
	// Weight 1 per leaf: derived tuple cost = number of leaves joined,
	// cheapest alternative wins.
	sys := fixture.MustSystem(fixture.Options{})
	for _, backend := range backends {
		ann := annotate(t, sys, backend, "WEIGHT", ` ASSIGNING EACH leaf_node $y { DEFAULT : SET 1 }`, "N", "O")
		expect(t, backend, ann, map[model.TupleRef]float64{
			// Via m5 from A(1) (cost 1) and C(1,cn1) (m1: A(1)+N(1,cn1,false) = 2) → 3.
			refO("cn1", 7): 3,
			// A leaf → 1.
			refN(1, "cn1", false): 1,
		})
	}
}

func TestEvalLineageMatchesGraphLineage(t *testing.T) {
	sys := fixture.MustSystem(fixture.Options{})
	g, err := provgraph.Build(sys)
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range backends {
		ann := annotate(t, sys, backend, "LINEAGE", "", "O")
		for _, root := range []model.TupleRef{refO("cn1", 7), refO("cn2", 5), refO("sn1", 7)} {
			ls, _ := ann[root].(semiring.LineageSet)
			want := leafAncestors(g, root)
			if len(ls.IDs) != len(want) {
				t.Errorf("%s: lineage(%v) = %v, graph walk found %v", backend, root, ls.IDs, want)
				continue
			}
			for _, ref := range want {
				if !ls.Contains(ref.String()) {
					t.Errorf("%s: lineage(%v) missing %v", backend, root, ref)
				}
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
	sys := fixture.MustSystem(fixture.Options{})
	for _, backend := range backends {
		ann := annotate(t, sys, backend, "PROBABILITY", "", "O")
		// O(cn1,7) event: A(1) ∧ (A(1) ∧ N(1,cn1,false)) = A(1) ∧ N(1,cn1,false).
		event, _ := ann[refO("cn1", 7)].(semiring.DNF)
		want := semiring.VarDNF(refA(1).String()).And(semiring.VarDNF(refN(1, "cn1", false).String()))
		if !semiring.EqDNF(event, want) {
			t.Errorf("%s: event = %s, want %s", backend, event, want)
		}
		probs := map[string]float64{
			refA(1).String():               0.5,
			refN(1, "cn1", false).String(): 0.4,
		}
		if p := semiring.ProbabilityOf(event, probs, 0); p != 0.2 {
			t.Errorf("%s: P = %g, want 0.2", backend, p)
		}
	}
}

func TestEvalCyclicFixpoint(t *testing.T) {
	// With m3 the graph is cyclic (C(1,cn1) ⇄ N(1,cn1,false)).
	sys := fixture.MustSystem(fixture.Options{IncludeM3: true})
	g, err := provgraph.Build(sys)
	if err != nil {
		t.Fatal(err)
	}
	if !isCyclic(g) {
		t.Fatal("example with m3 should be cyclic")
	}
	for _, backend := range backends {
		// Cycle-safe semiring: fixpoint converges; everything derivable.
		annotated := 0
		for _, rel := range allRels {
			ann := annotate(t, sys, backend, "DERIVABILITY", "", rel)
			for ref, v := range ann {
				if v != true {
					t.Errorf("%s: %v not derivable under fixpoint", backend, ref)
				}
			}
			annotated += len(ann)
		}
		if backend == "asr" && annotated != g.NumTuples() {
			t.Errorf("asr annotated %d tuples, the graph has %d", annotated, g.NumTuples())
		}
	}
	// Counting must refuse.
	q := proql.MustParse(`EVALUATE COUNT OF { FOR [N $x] INCLUDE PATH [$x] <-+ [] RETURN $x }`)
	if _, err := proql.NewEngine(sys).Eval(context.Background(), q, proql.Options{Backend: "asr"}); err == nil {
		t.Error("counting over a cyclic graph should be rejected")
	}
}

func TestEvalCyclicDropLeaf(t *testing.T) {
	// In the cyclic graph, derivability must not bootstrap itself
	// through the cycle: with N(1,cn1,false) untrusted as a leaf, it is
	// still derivable via m3 from C(1,cn1)? C(1,cn1) needs N(1,cn1,false)
	// via m1 — a pure cycle with no external support collapses to false.
	sys := fixture.MustSystem(fixture.Options{IncludeM3: true})
	for _, backend := range backends {
		ann := map[model.TupleRef]semiring.Value{}
		for _, rel := range allRels {
			maps.Copy(ann, annotate(t, sys, backend, "DERIVABILITY",
				` ASSIGNING EACH leaf_node $y { CASE $y IN N AND $y.name = 'cn1' : SET false DEFAULT : SET true }`, rel))
		}
		for ref, want := range map[model.TupleRef]bool{
			refN(1, "cn1", false): false,
			refC(1, "cn1"):        false,
			refO("cn1", 7):        false,
			refO("cn2", 5):        true, // independent tuples survive
		} {
			// The relational translation covers every anchor but N.
			v, ok := ann[ref]
			if !ok && (backend == "asr" || ref.Rel != "N") {
				t.Errorf("%s: no annotation of %v", backend, ref)
			} else if ok && v != want {
				t.Errorf("%s: %v = %v, want %v", backend, ref, v, want)
			}
		}
	}
}

func TestEvalConfidentiality(t *testing.T) {
	// A tuples are secret, others public; any join involving A requires
	// secret clearance.
	sys := fixture.MustSystem(fixture.Options{})
	for _, backend := range backends {
		ann := annotate(t, sys, backend, "CONFIDENTIALITY",
			` ASSIGNING EACH leaf_node $y { CASE $y IN A : SET 'secret' DEFAULT : SET 'public' }`, "C", "O")
		expect(t, backend, ann, map[model.TupleRef]int64{
			refO("cn1", 7): semiring.Secret,
			refC(2, "cn2"): semiring.Public, // a public leaf
		})
	}
}
