package physplan_test

import (
	"strings"
	"testing"

	"repro/internal/proql/physplan"
	"repro/internal/provgraph"
	"repro/internal/workload"
)

// TestDistinctJoinServedCount runs, on the served analytic instance M
// (20-peer chain, 3 upstream data peers, 500 rows each, seed 7), the
// common-provenance join [A0 $x] <-+ [$z], [A1 $y] <-+ [$z] RETURN
// $x, $y through the fused plan: 140,652 distinct pairs, out of the
// 2,408,072 rows of the join beneath the dedup that the unfused plan
// builds. The memory bound is held by proql's TestMultiPathServedAllocs.
func TestDistinctJoinServedCount(t *testing.T) {
	set, err := workload.Build(workload.Config{
		Topology:  workload.Chain,
		Profile:   workload.ProfileLinear,
		NumPeers:  20,
		DataPeers: workload.UpstreamDataPeers(20, 3),
		BaseSize:  500,
		Seed:      7,
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err := provgraph.Build(set.Sys)
	if err != nil {
		t.Fatal(err)
	}
	path := func(rel, v string) physplan.Path {
		return physplan.Path{
			Nodes: []physplan.Node{{Rel: rel, Var: v}, {Var: "z"}},
			Edges: []physplan.Edge{{Kind: physplan.EdgePlus}},
		}
	}
	plan, err := physplan.Compile(physplan.NewMem(g), physplan.Spec{
		Paths:  []physplan.Path{path("A0", "x"), path("A1", "y")},
		Return: []string{"x", "y"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if explain := plan.ExplainString(); !strings.Contains(explain, "DistinctJoin(on $z; distinct $x, $y)") {
		t.Fatalf("join not fused:\n%s", explain)
	}
	a, err := plan.Answer()
	if err != nil {
		t.Fatal(err)
	}
	const want = 140_652
	if a.Rows != want {
		t.Fatalf("%d result rows, want %d", a.Rows, want)
	}
}
