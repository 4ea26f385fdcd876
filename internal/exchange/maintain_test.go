package exchange_test

import (
	"runtime"
	"testing"

	"repro/internal/exchange"
	"repro/internal/fixture"
	"repro/internal/model"
	"repro/internal/wal"
	"repro/internal/workload"
)

func TestDeleteLocalPropagates(t *testing.T) {
	sys := fixture.MustSystem(fixture.Options{})
	// Delete A(1): everything resting solely on it must disappear —
	// A(1), N(1,sn1,true) (m2), C(1,cn1) (m1), O(sn1,7) (m4),
	// O(cn1,7) (m5) — while the A(2) family survives.
	report, err := sys.DeleteLocal("A", []model.Datum{int64(1)})
	if err != nil {
		t.Fatal(err)
	}
	if report.LocalDeleted != 1 {
		t.Errorf("LocalDeleted = %d", report.LocalDeleted)
	}
	if report.TuplesDeleted != 5 {
		t.Errorf("TuplesDeleted = %d, want 5", report.TuplesDeleted)
	}
	gone := []struct {
		rel string
		key []model.Datum
	}{
		{"A", []model.Datum{int64(1)}},
		{"N", []model.Datum{int64(1), "sn1", true}},
		{"C", []model.Datum{int64(1), "cn1"}},
		{"O", []model.Datum{"sn1", int64(7)}},
		{"O", []model.Datum{"cn1", int64(7)}},
	}
	for _, g := range gone {
		if _, ok := sys.DB.MustTable(g.rel).LookupKey(g.key); ok {
			t.Errorf("%s%v should have been removed", g.rel, g.key)
		}
	}
	kept := []struct {
		rel string
		key []model.Datum
	}{
		{"A", []model.Datum{int64(2)}},
		{"C", []model.Datum{int64(2), "cn2"}},
		{"N", []model.Datum{int64(1), "cn1", false}}, // its own leaf
		{"O", []model.Datum{"sn2", int64(5)}},
		{"O", []model.Datum{"cn2", int64(5)}},
	}
	for _, k := range kept {
		if _, ok := sys.DB.MustTable(k.rel).LookupKey(k.key); !ok {
			t.Errorf("%s%v should have survived", k.rel, k.key)
		}
	}
}

// TestDeleteLocalMatchesRebuild is the golden test: after a deletion,
// the maintained instance must equal the instance obtained by
// rebuilding exchange from scratch on the reduced base data. The
// reopened arm's deletion walks the provenance tables recovered from
// disk.
func TestDeleteLocalMatchesRebuild(t *testing.T) {
	dir := t.TempDir()
	_, st, err := fixture.DurableSystem(fixture.Options{}, dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	reopened, st, err := fixture.DurableSystem(fixture.Options{}, dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// Rebuild: same schema, base data without A(1).
	schema, err := fixture.Schema(fixture.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := exchange.NewSystem(schema, exchange.Options{})
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(rebuilt.InsertLocal("A", model.Tuple{int64(2), "sn2", int64(5)}))
	must(rebuilt.InsertLocal("N", model.Tuple{int64(1), "cn1", false}))
	must(rebuilt.InsertLocal("C", model.Tuple{int64(2), "cn2"}))
	must(rebuilt.Run())

	for name, maintained := range map[string]*exchange.System{
		"live":     fixture.MustSystem(fixture.Options{}),
		"reopened": reopened,
	} {
		report, err := maintained.DeleteLocal("A", []model.Datum{int64(1)})
		if err != nil {
			t.Fatal(err)
		}
		if report.TuplesDeleted != 5 || report.DerivationsDeleted != 4 {
			t.Errorf("%s: report %+v", name, report)
		}
		for _, rel := range []string{"A", "C", "N", "O"} {
			a := maintained.DB.MustTable(rel).SortedRows()
			b := rebuilt.DB.MustTable(rel).SortedRows()
			if len(a) != len(b) {
				t.Errorf("%s: %s: maintained %d rows, rebuilt %d", name, rel, len(a), len(b))
				continue
			}
			for i := range a {
				if model.EncodeDatums(a[i]) != model.EncodeDatums(b[i]) {
					t.Errorf("%s: %s row %d: %v vs %v", name, rel, i, a[i], b[i])
				}
			}
		}
		// Provenance rows must match too.
		for _, m := range schema.Mappings() {
			a, err := maintained.ProvRows(m.Name)
			if err != nil {
				t.Fatal(err)
			}
			b, err := rebuilt.ProvRows(m.Name)
			if err != nil {
				t.Fatal(err)
			}
			if len(a) != len(b) {
				t.Errorf("%s: P_%s: maintained %d rows, rebuilt %d", name, m.Name, len(a), len(b))
			}
		}
	}
}

// TestDeleteLocalCyclicSupport: with m3 the tuples C(1,cn1) and
// N(1,cn1,false) support each other; deleting N's local contribution
// removes their only external support, so the whole cycle must
// collapse — the case where naive counting-based maintenance fails and
// the derivability fixpoint is required.
func TestDeleteLocalCyclicSupport(t *testing.T) {
	sys := fixture.MustSystem(fixture.Options{IncludeM3: true})
	report, err := sys.DeleteLocal("N", []model.Datum{int64(1), "cn1", false})
	if err != nil {
		t.Fatal(err)
	}
	if report.LocalDeleted != 1 {
		t.Fatalf("LocalDeleted = %d", report.LocalDeleted)
	}
	for _, g := range []struct {
		rel string
		key []model.Datum
	}{
		{"N", []model.Datum{int64(1), "cn1", false}},
		{"C", []model.Datum{int64(1), "cn1"}},
		{"O", []model.Datum{"cn1", int64(7)}},
	} {
		if _, ok := sys.DB.MustTable(g.rel).LookupKey(g.key); ok {
			t.Errorf("%s%v should have collapsed with the cycle", g.rel, g.key)
		}
	}
	// The C(2,cn2) ⇄ N(2,cn2,false) cycle retains external support
	// (C's local contribution) and must survive.
	for _, k := range []struct {
		rel string
		key []model.Datum
	}{
		{"C", []model.Datum{int64(2), "cn2"}},
		{"N", []model.Datum{int64(2), "cn2", false}},
	} {
		if _, ok := sys.DB.MustTable(k.rel).LookupKey(k.key); !ok {
			t.Errorf("%s%v should have survived (external support remains)", k.rel, k.key)
		}
	}
}

func TestDeleteLocalNoOp(t *testing.T) {
	sys := fixture.MustSystem(fixture.Options{})
	report, err := sys.DeleteLocal("A", []model.Datum{int64(999)})
	if err != nil {
		t.Fatal(err)
	}
	if report.LocalDeleted != 0 || report.TuplesDeleted != 0 {
		t.Errorf("deleting a missing key should be a no-op: %+v", report)
	}
	if _, err := sys.DeleteLocal("nope", []model.Datum{int64(1)}); err == nil {
		t.Error("unknown relation should error")
	}
}

func TestDeleteLocalOnWorkloadChain(t *testing.T) {
	set, err := workload.Build(workload.Config{
		Topology:  workload.Chain,
		Profile:   workload.ProfileLinear,
		NumPeers:  5,
		DataPeers: workload.UpstreamDataPeers(5, 2),
		BaseSize:  10,
		Seed:      21,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys := set.Sys
	before := sys.DB.MustTable(workload.ARel(0)).Len() // 20
	// Delete one of peer 4's base tuples: its whole 5-hop chain goes.
	key := []model.Datum{int64(4)*10_000_000 + 0}
	report, err := sys.DeleteLocal(workload.ARel(4), key)
	if err != nil {
		t.Fatal(err)
	}
	if report.TuplesDeleted != 5 { // A4..A0 copies
		t.Errorf("TuplesDeleted = %d, want 5", report.TuplesDeleted)
	}
	if report.DerivationsDeleted != 4 {
		t.Errorf("DerivationsDeleted = %d, want 4", report.DerivationsDeleted)
	}
	if got := sys.DB.MustTable(workload.ARel(0)).Len(); got != before-1 {
		t.Errorf("A0 = %d rows, want %d", got, before-1)
	}
}

// TestFirstDeleteAfterRestartIsWarm: the first deletion after a
// restart costs what a later one does. It walks the recovered
// provenance tables through the probes the reopen built, so nothing
// proportional to the database is rebuilt on its way; counted in
// allocations, the first of two single-key deletes at the far
// upstream peer of a reopened 10-peer chain stays within twice the
// second.
func TestFirstDeleteAfterRestartIsWarm(t *testing.T) {
	cfg := workload.Config{
		Topology:  workload.Chain,
		Profile:   workload.ProfileLinear,
		NumPeers:  10,
		DataPeers: workload.UpstreamDataPeers(10, 2),
		BaseSize:  200,
		Seed:      7,
	}
	dir := t.TempDir()
	_, st, err := workload.OpenDurable(cfg, dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	set, st, err := workload.OpenDurable(cfg, dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const src = 9
	mallocs := func(i int64) uint64 {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		report, err := set.Sys.DeleteLocal(workload.ARel(src), []model.Datum{src*10_000_000 + i})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if report.TuplesDeleted != src+1 {
			t.Fatalf("delete %d: %+v, want the %d-hop chain deleted", i, report, src+1)
		}
		return after.Mallocs - before.Mallocs
	}
	first, second := mallocs(0), mallocs(1)
	t.Logf("first delete after restart: %d allocations, the next: %d", first, second)
	if first > 2*second {
		t.Fatalf("first delete after restart made %d allocations, the next %d: want at most twice", first, second)
	}
}
