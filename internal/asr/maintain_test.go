package asr_test

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/asr"
	"repro/internal/exchange"
	"repro/internal/fixture"
	"repro/internal/model"
	"repro/internal/workload"
)

// asrSnapshot renders every definition's backing table as one sorted,
// comparable string.
func asrSnapshot(t *testing.T, ix *asr.Index, sys *exchange.System) string {
	t.Helper()
	var lines []string
	for _, d := range ix.Defs() {
		tbl, ok := sys.DB.Table(d.Name)
		if !ok {
			t.Fatalf("ASR table %s missing", d.Name)
		}
		for _, row := range tbl.Rows() {
			lines = append(lines, d.Name+"|"+model.EncodeDatums(row))
		}
	}
	sort.Strings(lines)
	out := ""
	for _, l := range lines {
		out += l + "\n"
	}
	return out
}

// TestASRPatchMatchesMaterialize drives interleaved insert/delete
// churn through a chain setting carrying ASR indexes of every kind
// over randomly split mapping chains, and asserts after every
// operation that the incrementally patched backing tables are
// row-identical to a full re-materialization — then re-materializes so
// the next operation again starts from ground truth.
func TestASRPatchMatchesMaterialize(t *testing.T) {
	rng := rand.New(rand.NewSource(20260728))
	kinds := []asr.Kind{asr.CompletePath, asr.Subpath, asr.Prefix, asr.Suffix}
	for trial := 0; trial < 8; trial++ {
		kind := kinds[trial%len(kinds)]
		cfg := workload.Config{
			Topology:   workload.Chain,
			Profile:    workload.ProfileLinear,
			NumPeers:   5 + rng.Intn(3),
			DataPeers:  nil, // filled below
			BaseSize:   20,
			Categories: 16,
			Seed:       int64(1000 + trial),
		}
		cfg.DataPeers = workload.UpstreamDataPeers(cfg.NumPeers, 2)
		set, err := workload.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sys := set.Sys
		ix := asr.NewIndex(sys)
		for _, chain := range set.AChains() {
			// Random segment split: complete/subpath (and prefix/suffix)
			// delta semantics over varying span structures.
			maxLen := 1 + rng.Intn(len(chain))
			for _, seg := range workload.SplitChain(chain, maxLen) {
				if _, err := ix.Define(kind, seg...); err != nil {
					t.Fatalf("trial %d: define %v over %v: %v", trial, kind, seg, err)
				}
			}
		}
		if err := ix.Materialize(); err != nil {
			t.Fatal(err)
		}

		src := cfg.NumPeers - 1
		var next int64
		for op := 0; op < 6; op++ {
			if op%2 == 0 {
				// Insert a fresh base row at the far peer and propagate
				// incrementally; patch the ASRs from the report.
				k := int64(src)*10_000_000 + int64(cfg.BaseSize) + next
				next++
				row := model.Tuple{k, k % int64(cfg.Categories)}
				for a := 0; a < 10; a++ {
					row = append(row, k+int64(a))
				}
				if err := sys.InsertLocal(workload.ARel(src), row); err != nil {
					t.Fatal(err)
				}
				report, err := sys.RunDelta()
				if err != nil {
					t.Fatal(err)
				}
				if report.Full {
					t.Fatalf("trial %d op %d: RunDelta fell back to a full run", trial, op)
				}
				if err := ix.ApplyInsertions(report); err != nil {
					t.Fatal(err)
				}
			} else {
				// Delete one existing base row; patch the ASRs from the
				// deletion report.
				key := []model.Datum{int64(src)*10_000_000 + int64(op%cfg.BaseSize)}
				report, err := sys.DeleteLocal(workload.ARel(src), key)
				if err != nil {
					t.Fatal(err)
				}
				if err := ix.ApplyDeletions(report); err != nil {
					t.Fatal(err)
				}
			}
			patched := asrSnapshot(t, ix, sys)
			if err := ix.Materialize(); err != nil {
				t.Fatal(err)
			}
			rebuilt := asrSnapshot(t, ix, sys)
			if patched != rebuilt {
				t.Fatalf("trial %d (kind=%v) op %d: patched ASR tables differ from re-materialization\npatched:\n%s\nrebuilt:\n%s",
					trial, kind, op, patched, rebuilt)
			}
		}
	}
}

// TestASRPatchVirtualProvenance covers the virtual-provenance side of
// the patch probes: chain m1→m3 of the cyclic running example ends in
// a projection mapping whose provenance relation is a view, so the
// patch must fall back to per-call hashing for that position (no
// backing table to index) while still matching a re-materialization
// under insert AND delete churn.
func TestASRPatchVirtualProvenance(t *testing.T) {
	sys, err := fixture.System(fixture.Options{IncludeM3: true})
	if err != nil {
		t.Fatal(err)
	}
	if pr := sys.Prov["m3"]; pr == nil || !pr.Virtual {
		t.Fatal("fixture m3 is expected to have a virtual provenance relation")
	}
	ix := asr.NewIndex(sys)
	if _, err := ix.Define(asr.Subpath, "m1", "m3"); err != nil {
		t.Fatal(err)
	}
	if err := ix.Materialize(); err != nil {
		t.Fatal(err)
	}
	check := func(stage string) {
		t.Helper()
		patched := asrSnapshot(t, ix, sys)
		if err := ix.Materialize(); err != nil {
			t.Fatal(err)
		}
		if rebuilt := asrSnapshot(t, ix, sys); patched != rebuilt {
			t.Fatalf("%s: patched ASR tables differ from re-materialization\npatched:\n%s\nrebuilt:\n%s",
				stage, patched, rebuilt)
		}
	}

	// Insert churn: a new A row plus a curated N row feeding m1 (and,
	// through C, the virtual m3).
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(sys.InsertLocal("A", model.Tuple{int64(9), "sn9", int64(3)}))
	must(sys.InsertLocal("N", model.Tuple{int64(9), "cn9", false}))
	report, err := sys.RunDelta()
	if err != nil {
		t.Fatal(err)
	}
	if report.Full {
		t.Fatal("RunDelta fell back to a full run")
	}
	if err := ix.ApplyInsertions(report); err != nil {
		t.Fatal(err)
	}
	check("after insert")

	// Delete churn: retract the curated N(1,cn1,false), collapsing the
	// C⇄N cycle and its m1/m3 derivations.
	drep, err := sys.DeleteLocal("N", []model.Datum{int64(1), "cn1", false})
	if err != nil {
		t.Fatal(err)
	}
	if drep.DerivationsDeleted == 0 {
		t.Fatal("expected the retraction to delete derivations")
	}
	if err := ix.ApplyDeletions(drep); err != nil {
		t.Fatal(err)
	}
	check("after delete")

	// A report that deleted nothing touches no definition.
	before := ix.Materializations()
	if err := ix.ApplyDeletions(&exchange.MaintenanceReport{}); err != nil {
		t.Fatal(err)
	}
	if got := ix.Materializations(); got != before {
		t.Fatalf("empty report triggered %d materializations", got-before)
	}
}
