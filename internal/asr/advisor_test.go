package asr_test

import (
	"context"
	"testing"

	"repro/internal/asr"
	"repro/internal/fixture"
	"repro/internal/proql"
	"repro/internal/workload"
)

func TestAdviseOnChainWorkload(t *testing.T) {
	set, err := workload.Build(workload.Config{
		Topology:  workload.Chain,
		Profile:   workload.ProfileLinear,
		NumPeers:  10,
		DataPeers: workload.UpstreamDataPeers(10, 2),
		BaseSize:  20,
		Seed:      9,
	})
	if err != nil {
		t.Fatal(err)
	}
	ix := asr.NewIndex(set.Sys)
	defs, err := ix.Advise(workload.ARel(0), 4)
	if err != nil {
		t.Fatal(err)
	}
	// 9 mappings split into segments of ≤4 with the length-1 tail
	// dropped: [4,4] (the final singleton is skipped).
	if len(defs) != 2 {
		for _, d := range defs {
			t.Logf("def %s over %v", d.Name, d.Chain)
		}
		t.Fatalf("advised %d defs, want 2", len(defs))
	}
	for _, d := range defs {
		if d.Kind != asr.Suffix {
			t.Errorf("advised kind = %v, want suffix", d.Kind)
		}
		if len(d.Chain) != 4 {
			t.Errorf("segment length = %d, want 4", len(d.Chain))
		}
	}
	if err := ix.Materialize(); err != nil {
		t.Fatal(err)
	}
	// Advised indexes must preserve query results.
	eng := proql.NewEngine(set.Sys)
	rel := proql.Options{Backend: "relational"} // the rewrite applies to the translation only
	q := proql.MustParse(set.TargetQuery())
	base, err := eng.Exec(context.Background(), q, rel)
	if err != nil {
		t.Fatal(err)
	}
	eng.RewriteRules = ix.RewriteRules
	opt, err := eng.Exec(context.Background(), q, rel)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.SortedRefs("x")) != len(opt.SortedRefs("x")) {
		t.Error("advised ASRs changed query results")
	}
	if got, want := opt.MustGraph().NumDerivations(), base.MustGraph().NumDerivations(); got != want {
		t.Errorf("derivations %d with advised ASRs, %d without", got, want)
	}
}

func TestAdviseOnBranchedWorkload(t *testing.T) {
	set, err := workload.Build(workload.Config{
		Topology:  workload.Branched,
		Profile:   workload.ProfileLinear,
		NumPeers:  13, // 4 branches of 3 peers each
		DataPeers: workload.UpstreamDataPeers(13, 4),
		BaseSize:  10,
		Seed:      9,
	})
	if err != nil {
		t.Fatal(err)
	}
	ix := asr.NewIndex(set.Sys)
	defs, err := ix.Advise(workload.ARel(0), 3)
	if err != nil {
		t.Fatal(err)
	}
	// 4 branches × 3 mappings: one length-3 suffix def per branch.
	if len(defs) != 4 {
		t.Fatalf("advised %d defs, want 4", len(defs))
	}
	// Disjointness is enforced by Define; a second Advise over the
	// same anchor has nothing unclaimed left to index.
	more, err := ix.Advise(workload.ARel(0), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(more) != 0 {
		t.Errorf("second advise should find nothing, got %d defs", len(more))
	}
}

func TestAdviseRunningExample(t *testing.T) {
	sys := fixture.MustSystem(fixture.Options{})
	ix := asr.NewIndex(sys)
	defs, err := ix.Advise("O", 5)
	if err != nil {
		t.Fatal(err)
	}
	// From O: m4 chains only to A (no incoming mappings → length-1
	// chain, dropped); m5 continues through C into m1. m1 does not
	// connect further: m2 produces N(…,true) but m1 consumes
	// N(…,false), so the chain ends → [m5, m1].
	if len(defs) != 1 || len(defs[0].Chain) != 2 {
		for _, d := range defs {
			t.Logf("def %v", d.Chain)
		}
		t.Fatalf("advise on example = %d defs", len(defs))
	}
	if defs[0].Chain[0] != "m5" || defs[0].Chain[1] != "m1" {
		t.Fatalf("chain = %v, want [m5 m1]", defs[0].Chain)
	}
}
