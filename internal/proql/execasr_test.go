package proql

import (
	"context"
	"errors"
	"testing"

	"repro/internal/provgraph"
)

// TestASRBackendMatchesGraphOnPaperQueries cross-checks the
// goal-directed asr backend against the tree-walking interpreter over
// a built provenance graph on every paper query: bindings, projected
// subgraph size, and annotations must agree.
func TestASRBackendMatchesGraphOnPaperQueries(t *testing.T) {
	for name, text := range paperQueries {
		e := exampleEngine(t)
		q := MustParse(text)
		gr, err := ExecInterpreter(e, context.Background(), q, 0)
		if err != nil {
			t.Fatalf("%s: interpreter: %v", name, err)
		}
		goal, err := e.Exec(context.Background(), q, Options{Backend: "asr"})
		if err != nil {
			t.Fatalf("%s: asr: %v", name, err)
		}
		if goal.Stats.Backend != "asr" {
			t.Fatalf("%s: backend = %q", name, goal.Stats.Backend)
		}
		for _, v := range q.Projection.Return {
			gRefs, sRefs := gr.SortedRefs(v), goal.SortedRefs(v)
			if len(gRefs) != len(sRefs) {
				t.Fatalf("%s: $%s bindings %d (interpreter) vs %d (asr)", name, v, len(gRefs), len(sRefs))
			}
			for i := range gRefs {
				if gRefs[i] != sRefs[i] {
					t.Fatalf("%s: $%s binding %d: %v vs %v", name, v, i, gRefs[i], sRefs[i])
				}
			}
		}
		gg, sg := gr.MustGraph(), goal.MustGraph()
		if gg.NumDerivations() != sg.NumDerivations() {
			t.Errorf("%s: projected derivations %d (interpreter) vs %d (asr)", name, gg.NumDerivations(), sg.NumDerivations())
		}
		if gg.NumTuples() != sg.NumTuples() {
			t.Errorf("%s: projected tuples %d (interpreter) vs %d (asr)", name, gg.NumTuples(), sg.NumTuples())
		}
		if (gr.Annotations == nil) != (goal.Annotations == nil) {
			t.Fatalf("%s: annotation presence differs", name)
		}
		for ref, v := range gr.Annotations {
			sv, ok := goal.Annotations[ref]
			if !ok || !gr.Semiring.Eq(v, sv) {
				t.Errorf("%s: annotation mismatch for %v: %v vs %v", name, ref, v, sv)
			}
		}
	}
}

// TestASRBackendZeroGraphBuilds asserts the asr backend's defining
// property: evaluating the multi-path Q4 and annotation Q5 shapes,
// each twice, never materializes a provenance graph. The asr planner
// reads only the query syntax, so the plan cache stays empty.
func TestASRBackendZeroGraphBuilds(t *testing.T) {
	e := exampleEngine(t)
	e.Backend = "asr"
	before := provgraph.Builds()
	for _, name := range []string{"Q4", "Q5", "Q4", "Q5"} {
		res, err := e.Exec(context.Background(), MustParse(paperQueries[name]), Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Stats.Backend != "asr" {
			t.Fatalf("%s: backend = %q", name, res.Stats.Backend)
		}
		if len(res.Bindings) == 0 {
			t.Fatalf("%s: no bindings", name)
		}
	}
	if got := provgraph.Builds() - before; got != 0 {
		t.Fatalf("asr backend materialized %d provenance graphs, want 0", got)
	}
	if st := e.PlanCacheStats(); st != (PlanCacheStats{}) {
		t.Errorf("asr queries touched the plan cache: %+v", st)
	}
}

// TestASRBackendViaEngineBackendField routes Exec and Explain through
// the Backend selector.
func TestASRBackendViaEngineBackendField(t *testing.T) {
	e := exampleEngine(t)
	e.Backend = "asr"
	out, err := e.ExplainString(paperQueries["Q4"])
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"backend: asr (forced)", "physical plan:", "plan cache:"} {
		if !containsStr(out, want) {
			t.Errorf("explain missing %q:\n%s", want, out)
		}
	}
	e.Backend = "bogus"
	var ub *ErrUnknownBackend
	if _, err := e.Exec(context.Background(), MustParse(paperQueries["Q1"]), Options{}); !errors.As(err, &ub) {
		t.Errorf("unknown backend must error with ErrUnknownBackend, got %v", err)
	}
	if _, err := e.Explain(MustParse(paperQueries["Q1"])); !errors.As(err, &ub) {
		t.Errorf("unknown backend must error in Explain with ErrUnknownBackend, got %v", err)
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
