package proql_test

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/proql"
	"repro/internal/provgraph"
	"repro/internal/relstore"
	"repro/internal/workload"
)

// instanceS is the chain instance the served point-read and mixed-churn
// workloads run on: 10 peers, 2 upstream data peers, 500 local rows
// each.
func instanceS(t *testing.T) *workload.Setting {
	t.Helper()
	set, err := workload.Build(workload.Config{
		Topology:  workload.Chain,
		Profile:   workload.ProfileLinear,
		NumPeers:  10,
		DataPeers: workload.UpstreamDataPeers(10, 2),
		BaseSize:  500,
		Seed:      7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// TestProjectedGraphDeterministic: the projected graph links in one
// canonical order whichever backend recorded it, so five runs of the
// whole-target query on each of auto, graph and asr render one DOT
// text between them.
func TestProjectedGraphDeterministic(t *testing.T) {
	set := instanceS(t)
	eng := proql.NewEngine(set.Sys)
	q := proql.MustParse(set.TargetQuery())
	renderings := map[string][]string{} // DOT text → backend of each run
	for _, backend := range []string{"auto", "graph", "asr"} {
		for run := 0; run < 5; run++ {
			res, err := eng.Eval(context.Background(), q, proql.Options{Backend: backend})
			if err != nil {
				t.Fatal(err)
			}
			var sb strings.Builder
			if err := provgraph.WriteDOT(&sb, res.MustGraph(), "target"); err != nil {
				t.Fatal(err)
			}
			renderings[sb.String()] = append(renderings[sb.String()], backend)
		}
	}
	if len(renderings) != 1 {
		for dot, runs := range renderings {
			t.Logf("%d bytes rendered by %v", len(dot), runs)
		}
		t.Fatalf("15 runs rendered %d different DOT texts, want 1", len(renderings))
	}
}

// TestProjectionServedCounts holds what the graph and asr backends do
// for the served analytic-read workload's whole-target query on
// instance M: Eval records the projection and links no node of it (an
// allocation and byte bound per query that an eager link breaks);
// Graph() links it on first call. EVALUATE links nothing either: its
// annotations are computed over the recording.
func TestProjectionServedCounts(t *testing.T) {
	set := instanceM(t)
	eng := proql.NewEngine(set.Sys)
	q := proql.MustParse(set.TargetQuery())
	for _, backend := range []string{"graph", "asr"} {
		var res *proql.Result
		serve := func() {
			var err error
			if res, err = eng.Eval(context.Background(), q, proql.Options{Backend: backend}); err != nil {
				t.Fatal(err)
			}
			for _, v := range res.Vars() {
				res.SortedRefs(v)
			}
		}
		allocs := testing.AllocsPerRun(2, serve) // fills the plan cache first
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		serve()
		runtime.ReadMemStats(&after)
		bytes := after.TotalAlloc - before.TotalAlloc
		if res.Len() != 1500 {
			t.Errorf("%s: %d rows, want 1,500", backend, res.Len())
		}
		if allocs > constFreeAllocBound {
			t.Errorf("%s: %.0f allocations per query, bound %d", backend, allocs, constFreeAllocBound)
		}
		if bytes > constFreeByteBound {
			t.Errorf("%s: %d bytes allocated per query, bound %d", backend, bytes, constFreeByteBound)
		}
		t.Logf("%s: %.0f allocations, %d bytes", backend, allocs, bytes)
		if n := res.LinkedNodes(); n != 0 {
			t.Errorf("%s: Eval linked %d provgraph nodes, want 0", backend, n)
		}
		g := res.MustGraph()
		if g.NumDerivations() == 0 || res.LinkedNodes() != g.NumTuples()+g.NumDerivations() {
			t.Errorf("%s: Graph() linked %d derivations, result holds %d nodes", backend, g.NumDerivations(), res.LinkedNodes())
		}

		ann, err := eng.Eval(context.Background(), proql.MustParse(set.TargetAnnotationQuery()), proql.Options{Backend: backend})
		if err != nil {
			t.Fatal(err)
		}
		if ann.LinkedNodes() != 0 || len(ann.Annotations) != 1500 {
			t.Errorf("%s: EVALUATE linked %d nodes for %d annotations, want 0 for 1,500", backend, ann.LinkedNodes(), len(ann.Annotations))
		}
	}
}

// TestIncludePointQueryIgnoresOrdinalRange: a keyed INCLUDE point query
// whose tuples sit at high storage slots — past 5,000 rows of churn at
// the data peer — allocates what the same query allocates for a tuple
// at a low slot (±10 %): per-query memory follows the projection, not
// the store's slot range.
func TestIncludePointQueryIgnoresOrdinalRange(t *testing.T) {
	set := instanceS(t)
	eng := proql.NewEngine(set.Sys)
	// Peer 8 holds data: its local rows are keyed 80,000,000 + i.
	const peer, base, extra = 8, 80_000_000, 5_000
	for i := 0; i < extra; i++ {
		k := int64(base + 500 + i)
		row := model.Tuple{k, k % int64(set.Config.Categories)}
		for a := 0; a < 10; a++ {
			row = append(row, k+int64(a))
		}
		if err := set.Sys.InsertLocal(workload.ARel(peer), row); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := set.Sys.RunDelta(); err != nil {
		t.Fatal(err)
	}
	measure := func(key int) (allocs, bytes float64) {
		q := proql.MustParse(fmt.Sprintf(`FOR [A0 $x] WHERE $x.k = %d INCLUDE PATH [$x] <-+ [] RETURN $x`, key))
		serve := func() {
			res, err := eng.Eval(context.Background(), q, proql.Options{Backend: "graph"})
			if err != nil {
				t.Fatal(err)
			}
			if res.Len() != 1 {
				t.Fatalf("point query on %d returned %d rows, want 1", key, res.Len())
			}
		}
		const runs = 50
		allocs = testing.AllocsPerRun(runs, serve)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			serve()
		}
		runtime.ReadMemStats(&after)
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	lowAllocs, lowBytes := measure(base + 3)
	allocs, bytes := measure(base + 500 + extra - 1)
	t.Logf("low slot: %.0f allocations, %.0f bytes; high slot: %.0f, %.0f", lowAllocs, lowBytes, allocs, bytes)
	if allocs > 1.1*lowAllocs || bytes > 1.1*lowBytes {
		t.Errorf("high slot: %.0f allocations and %.0f bytes per query, low slot %.0f and %.0f (+10 %% allowed)",
			allocs, bytes, lowAllocs, lowBytes)
	}
}

// TestGraphRuleAfterDelete: a projected graph is linked on the first
// Graph() call, under one rule on every backend — a live result
// resolves tuple metadata at the newest epoch, so a tuple deleted after
// the query carries no row; an AS OF result resolves at its own epoch,
// so the same tuple keeps its row.
func TestGraphRuleAfterDelete(t *testing.T) {
	set := instanceS(t)
	set.Sys.DB.SetRetention(relstore.RetainAll)
	eng := proql.NewEngine(set.Sys)
	q := proql.MustParse(set.TargetQuery())
	backends := []string{"auto", "graph", "asr"}
	before := set.Sys.DB.Epoch()
	live := map[string]*proql.Result{}
	asOf := map[string]*proql.Result{}
	for _, backend := range backends {
		var err error
		if live[backend], err = eng.Eval(context.Background(), q, proql.Options{Backend: backend}); err != nil {
			t.Fatal(err)
		}
		if asOf[backend], err = eng.Eval(context.Background(), q, proql.Options{Backend: backend, AsOfEpoch: before}); err != nil {
			t.Fatal(err)
		}
	}
	// The top peer's first local row: it and its copies down to A0 go.
	top := set.Config.NumPeers - 1
	key := []model.Datum{int64(top) * 10_000_000}
	deleted := model.RefFromKey(workload.ARel(0), key)
	if _, err := set.Sys.DeleteLocal(workload.ARel(top), key); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name    string
		results map[string]*proql.Result
		hasRow  bool
	}{{"live", live, false}, {"as of the delete's parent epoch", asOf, true}} {
		want := graphSignature(t, c.results["auto"])
		for _, backend := range backends {
			res := c.results[backend]
			if got := graphSignature(t, res); got != want {
				t.Fatalf("%s: %s projected graph differs from auto's:\n%s\nauto:\n%s", c.name, backend, got, want)
			}
			tn, ok := res.MustGraph().Lookup(deleted)
			if !ok {
				t.Fatalf("%s: %s: deleted tuple %v not projected", c.name, backend, deleted)
			}
			if hasRow := tn.Row != nil; hasRow != c.hasRow {
				t.Errorf("%s: %s: deleted tuple carries a row = %v, want %v", c.name, backend, hasRow, c.hasRow)
			}
		}
	}
}

// TestEvaluateRacingCommitReadsItsEpoch: EVALUATE on the graph and asr
// backends computes its annotations over the recorded projection while
// the query's view is still bound, so they come from the epoch the
// query read, never from a newer one: with commits racing the queries,
// every annotation equals the one the interpreter computes AS OF the
// epoch the result reports.
func TestEvaluateRacingCommitReadsItsEpoch(t *testing.T) {
	set, err := workload.Build(workload.Config{
		Topology:  workload.Chain,
		Profile:   workload.ProfileLinear,
		NumPeers:  4,
		DataPeers: workload.UpstreamDataPeers(4, 2),
		BaseSize:  20,
		Seed:      7,
	})
	if err != nil {
		t.Fatal(err)
	}
	set.Sys.DB.SetRetention(relstore.RetainAll)
	sys := core.Wrap(set.Sys)
	eng := sys.Engine()
	target := set.TargetQuery()
	queries := []*proql.Query{
		proql.MustParse("EVALUATE COUNT OF { " + target + " }"),
		proql.MustParse("EVALUATE TRUST OF { " + target + " } ASSIGNING EACH leaf_node $y { CASE $y in A3 and $y.c >= 2 : SET false DEFAULT : SET true }"),
	}

	top := workload.ARel(3)
	rows := set.Sys.DB.MustTable(top + "_l").Rows()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the writer: delete and re-insert the top peer's rows
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			row := rows[i%len(rows)]
			if _, err := sys.DeleteLocal(top, []model.Datum{row[0]}); err != nil {
				t.Error(err)
				return
			}
			if err := sys.InsertLocal(top, row); err != nil {
				t.Error(err)
				return
			}
			if err := sys.Run(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	type read struct {
		q   *proql.Query
		res *proql.Result
	}
	var reads []read
	for i := 0; i < 40; i++ {
		q := queries[i%len(queries)]
		backend := []string{"graph", "asr"}[i/2%2]
		res, err := eng.Eval(context.Background(), q, proql.Options{Backend: backend})
		if err != nil {
			t.Fatal(err)
		}
		reads = append(reads, read{q, res})
	}
	close(done)
	wg.Wait()

	epochs := map[uint64]bool{}
	for _, r := range reads {
		epochs[r.res.Stats.Epoch] = true
		want, err := proql.ExecInterpreter(eng, context.Background(), r.q, r.res.Stats.Epoch)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("%s at epoch %d", r.res.Stats.Backend, r.res.Stats.Epoch)
		if len(r.res.Annotations) != len(want.Annotations) {
			t.Fatalf("%s: %d annotations, the interpreter has %d", label, len(r.res.Annotations), len(want.Annotations))
		}
		for ref, wv := range want.Annotations {
			if gv, ok := r.res.Annotations[ref]; !ok || !want.Semiring.Eq(gv, wv) {
				t.Fatalf("%s: annotation of %v = %v, the interpreter's %v", label, ref, gv, wv)
			}
		}
	}
	t.Logf("%d results over %d epochs", len(reads), len(epochs))
}
