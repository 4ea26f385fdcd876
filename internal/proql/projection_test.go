package proql_test

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
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
// whole-target query on each of auto and path render one DOT
// text between them.
func TestProjectedGraphDeterministic(t *testing.T) {
	set := instanceS(t)
	eng := proql.NewEngine(set.Sys)
	q := proql.MustParse(set.TargetQuery())
	renderings := map[string][]string{} // DOT text → backend of each run
	for _, backend := range []string{"auto", "path"} {
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

// TestProjectionServedCounts holds what the path backend do
// for the served analytic-read workload's whole-target query on
// instance M: Eval records the projection and links no node of it (an
// allocation and byte bound per query that an eager link breaks);
// Graph() links it on first call. EVALUATE links nothing either: its
// annotations are computed over the recording.
func TestProjectionServedCounts(t *testing.T) {
	set := instanceM(t)
	eng := proql.NewEngine(set.Sys)
	q := proql.MustParse(set.TargetQuery())
	backend := "path"
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
			res, err := eng.Eval(context.Background(), q, proql.Options{Backend: "path"})
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
	backends := []string{"auto", "path"}
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

// TestEvaluateRacingCommitReadsItsEpoch: EVALUATE on the path backend
// computes its annotations over the recorded projection while the
// query's view is still bound, so they come from the epoch the query
// read, never from a newer one: with commits racing the queries,
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
		res, err := eng.Eval(context.Background(), q, proql.Options{Backend: "path"})
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

// TestEvaluateLeafMarksReadTheQueryEpoch ties EVALUATE's leaf marks to
// the epoch the query read. The writer toggles the local contribution
// of a derived tuple of A1, so its leaf mark — and the COUNT of the A0
// tuple it derives — differ between epochs while its derivations stay.
// Every path-executor reply must equal the same query AS OF the epoch
// it reports, as the interpreter answers it.
func TestEvaluateLeafMarksReadTheQueryEpoch(t *testing.T) {
	set, err := workload.Build(workload.Config{
		Topology:  workload.Chain,
		Profile:   workload.ProfileLinear,
		NumPeers:  4,
		DataPeers: workload.UpstreamDataPeers(4, 2),
		BaseSize:  100,
		Seed:      7,
	})
	if err != nil {
		t.Fatal(err)
	}
	set.Sys.DB.SetRetention(relstore.RetainAll)
	sys := core.Wrap(set.Sys)
	eng := sys.Engine()
	queries := []*proql.Query{
		proql.MustParse("EVALUATE COUNT OF { " + set.TargetQuery() + " }"),
		proql.MustParse("EVALUATE DERIVABILITY OF { " + set.TargetQuery() + " }"),
	}
	mid := workload.ARel(1)
	row := set.Sys.DB.MustTable(mid).Rows()[0] // derived from A2, not local
	if set.Sys.IsLeafRef(model.RefFromKey(mid, []model.Datum{row[0]})) {
		t.Fatalf("%s%v is already a local contribution", mid, row)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	var toggles atomic.Int64
	wg.Add(1)
	go func() { // the writer: make the derived tuple local, then not
		defer wg.Done()
		for ; ; toggles.Add(1) {
			select {
			case <-done:
				return
			default:
			}
			if _, err := sys.Insert(mid, row); err != nil {
				t.Error(err)
				return
			}
			if _, err := sys.DeleteLocal(mid, []model.Datum{row[0]}); err != nil {
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
	// Read until the writer has toggled the mark many times (bounded, in
	// case it stopped on an error).
	for i := 0; i < 5000 && (i < 400 || toggles.Load() < 100); i++ {
		q := queries[i%len(queries)]
		res, err := eng.Eval(context.Background(), q, proql.Options{Backend: "path"})
		if err != nil {
			t.Fatal(err)
		}
		reads = append(reads, read{q, res})
	}
	close(done)
	wg.Wait()

	type point struct {
		q     *proql.Query
		epoch uint64
	}
	oracle := map[point]*proql.Result{}
	counts := map[string]bool{}
	for _, r := range reads {
		if r.res.Stats.Backend != "path" {
			t.Fatalf("ran on %s", r.res.Stats.Backend)
		}
		at := point{r.q, r.res.Stats.Epoch}
		want := oracle[at]
		if want == nil {
			if want, err = proql.ExecInterpreter(eng, context.Background(), r.q, at.epoch); err != nil {
				t.Fatal(err)
			}
			oracle[at] = want
		}
		label := fmt.Sprintf("%s at epoch %d", want.Semiring.Name(), r.res.Stats.Epoch)
		if len(r.res.Annotations) != len(want.Annotations) {
			t.Fatalf("%s: %d annotations, the interpreter has %d", label, len(r.res.Annotations), len(want.Annotations))
		}
		var sum []string
		for _, ref := range want.SortedRefs("x") {
			wv, gv := want.Annotations[ref], r.res.Annotations[ref]
			if !want.Semiring.Eq(gv, wv) {
				t.Fatalf("%s: annotation of %v = %v, the interpreter's %v", label, ref, want.Semiring.Format(gv), want.Semiring.Format(wv))
			}
			sum = append(sum, want.Semiring.Format(wv))
		}
		if r.q == queries[0] {
			counts[strings.Join(sum, ",")] = true
		}
	}
	if len(counts) < 2 {
		t.Fatalf("COUNT read one state only in %d replies: the writer never changed a leaf mark under the reads", len(reads)/2)
	}
}

// TestRelationalFollowsLocalData: the relational translation adds a
// relation's local-contribution alternative only where the local table
// holds rows in the snapshot the query reads. A derived A1 tuple made
// local counts twice for its A0 tuple (its local row, and the A2 tuple
// it is derived from) on an engine that answered the same query while
// A1's local table was empty, and again AS OF that epoch once the
// local row is gone.
func TestRelationalFollowsLocalData(t *testing.T) {
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
	q := proql.MustParse("EVALUATE COUNT OF { " + set.TargetQuery() + " }")
	mid := workload.ARel(1)
	row := set.Sys.DB.MustTable(mid).Rows()[0] // derived from A2, not local
	target := model.RefFromKey(workload.ARel(0), []model.Datum{row[0]})
	count := func(label string, asOf uint64) *proql.Result {
		t.Helper()
		res, err := eng.Eval(context.Background(), q, proql.Options{Backend: "relational", AsOfEpoch: asOf})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		want, err := proql.ExecInterpreter(eng, context.Background(), q, res.Stats.Epoch)
		if err != nil {
			t.Fatal(err)
		}
		for ref, wv := range want.Annotations {
			if gv := res.Annotations[ref]; !want.Semiring.Eq(gv, wv) {
				t.Fatalf("%s: annotation of %v = %v, the interpreter's %v", label, ref, gv, wv)
			}
		}
		return res
	}
	if got := count("before", 0).Annotations[target]; got != int64(1) {
		t.Fatalf("before: COUNT of %v = %v, want 1", target, got)
	}
	if _, err := sys.Insert(mid, row); err != nil {
		t.Fatal(err)
	}
	local := count("local", 0)
	if got := local.Annotations[target]; got != int64(2) {
		t.Fatalf("local: COUNT of %v = %v, want 2", target, got)
	}
	if _, err := sys.DeleteLocal(mid, []model.Datum{row[0]}); err != nil {
		t.Fatal(err)
	}
	if got := count("after", 0).Annotations[target]; got != int64(1) {
		t.Fatalf("after: COUNT of %v = %v, want 1", target, got)
	}
	if got := count("as of", local.Stats.Epoch).Annotations[target]; got != int64(2) {
		t.Fatalf("AS OF %d: COUNT of %v = %v, want 2", local.Stats.Epoch, target, got)
	}
}

// TestSharedDenseTablesRacingCommits: whole-relation path reads, plain
// and EVALUATE, share the dense tables of the epoch they read while a
// writer's commits take a base tuple away and back, so the derived
// tuples downstream go and come back. Every reply must be the
// interpreter's answer AS OF its Stats.Epoch: a view takes only the
// tables of its own epoch.
func TestSharedDenseTablesRacingCommits(t *testing.T) {
	set, err := workload.Build(workload.Config{
		Topology:  workload.Chain,
		Profile:   workload.ProfileLinear,
		NumPeers:  4,
		DataPeers: workload.UpstreamDataPeers(4, 2),
		BaseSize:  60,
		Seed:      7,
	})
	if err != nil {
		t.Fatal(err)
	}
	set.Sys.DB.SetRetention(relstore.RetainAll)
	sys := core.Wrap(set.Sys)
	eng := sys.Engine()
	queries := []*proql.Query{
		proql.MustParse(set.TargetQuery()),
		proql.MustParse("EVALUATE COUNT OF { " + set.TargetQuery() + " }"),
	}
	up := workload.ARel(3)
	row := set.Sys.DB.MustTable(up + "_l").Rows()[0]

	done := make(chan struct{})
	var wg sync.WaitGroup
	var toggles atomic.Int64
	wg.Add(1)
	go func() { // the writer: take the base tuple away, then back
		defer wg.Done()
		for ; ; toggles.Add(1) {
			select {
			case <-done:
				return
			default:
			}
			if _, err := sys.DeleteLocal(up, []model.Datum{row[0]}); err != nil {
				t.Error(err)
				return
			}
			if _, err := sys.Insert(up, row); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	type read struct {
		q   *proql.Query
		res *proql.Result
	}
	reads := make([][]read, 2)
	var readers sync.WaitGroup
	for r := range reads {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 3000 && (i < 200 || toggles.Load() < 50); i++ {
				q := queries[(i+r)%len(queries)]
				res, err := eng.Eval(context.Background(), q, proql.Options{Backend: "path"})
				if err != nil {
					t.Error(err)
					return
				}
				reads[r] = append(reads[r], read{q, res})
			}
		}()
	}
	readers.Wait()
	close(done)
	wg.Wait()

	type point struct {
		q     *proql.Query
		epoch uint64
	}
	oracle := map[point]*proql.Result{}
	sizes := map[int]bool{}
	for _, rs := range reads {
		for _, r := range rs {
			at := point{r.q, r.res.Stats.Epoch}
			want := oracle[at]
			if want == nil {
				if want, err = proql.ExecInterpreter(eng, context.Background(), r.q, at.epoch); err != nil {
					t.Fatal(err)
				}
				oracle[at] = want
			}
			label := fmt.Sprintf("EVALUATE %q at epoch %d", r.q.Evaluate, at.epoch)
			got, exp := r.res.SortedRefs("x"), want.SortedRefs("x")
			if fmt.Sprint(got) != fmt.Sprint(exp) {
				t.Fatalf("%s: the %d bindings differ from the interpreter's %d", label, len(got), len(exp))
			}
			for ref, wv := range want.Annotations {
				if gv := r.res.Annotations[ref]; !want.Semiring.Eq(gv, wv) {
					t.Fatalf("%s: annotation of %v = %v, the interpreter's %v", label, ref, gv, wv)
				}
			}
			sizes[len(got)] = true
		}
	}
	if len(sizes) < 2 {
		t.Fatalf("every reply had the same size: the writer never changed the target under the reads")
	}
}

// TestSharedDenseTablesOwnership: what path queries read of whole
// tables is shared, one epoch's generation at a time, and a view keeps
// only its own query's arrays. A point query leaves a view holding a
// small part of what the whole-relation query shares; a view holding
// more than spareBytes is dropped; after a commit, the next
// whole-relation query builds its tables anew, refilling the arrays of
// the retired generation, and the shared set holds the new epoch's
// alone.
func TestSharedDenseTablesOwnership(t *testing.T) {
	set := instanceS(t)
	sys := core.Wrap(set.Sys)
	eng := sys.Engine()
	target := set.Sys.DB.MustTable(workload.ARel(0)).Rows()[0]
	point := proql.MustParse(fmt.Sprintf("FOR [%s $x] WHERE $x.k = %d INCLUDE PATH [$x] <-+ [] RETURN $x", workload.ARel(0), target[0]))
	whole := proql.MustParse(set.TargetQuery())
	run := func(q *proql.Query) {
		t.Helper()
		if _, err := eng.Eval(context.Background(), q, proql.Options{Backend: "path"}); err != nil {
			t.Fatal(err)
		}
	}
	run(point)
	_, pointBytes := proql.SpareViews(eng)
	run(whole)
	epoch, _, tabs, shared := proql.SharedDense(eng)
	if epoch != set.Sys.DB.Epoch() || len(tabs) == 0 {
		t.Fatalf("after a whole-relation query at epoch %d: %d tables shared at epoch %d", set.Sys.DB.Epoch(), len(tabs), epoch)
	}
	if pointBytes*8 > shared {
		t.Fatalf("a point query left a view holding %d bytes, against %d shared by the whole-relation query", pointBytes, shared)
	}
	n, held := proql.SpareViews(eng)
	if n != 1 || held == 0 {
		t.Fatalf("after a whole-relation query: %d views kept holding %d bytes, want 1", n, held)
	}
	defer proql.SetSpareBytes(proql.SetSpareBytes(held - 1))
	run(whole)
	if n, _ := proql.SpareViews(eng); n != 0 {
		t.Fatalf("a view holding more than spareBytes was kept (%d views)", n)
	}

	// Two commits, each followed by a point read, which retires the
	// generation before it: the second holds no table, and retiring it
	// keeps the arrays the first left spare.
	row := set.Sys.DB.MustTable(workload.ARel(9) + "_l").Rows()[0]
	if _, err := sys.DeleteLocal(workload.ARel(9), []model.Datum{row[0]}); err != nil {
		t.Fatal(err)
	}
	run(point)
	if _, err := sys.Insert(workload.ARel(9), row); err != nil {
		t.Fatal(err)
	}
	run(point)
	run(whole)
	next, _, now, _ := proql.SharedDense(eng)
	if next != set.Sys.DB.Epoch() || next == epoch || len(now) == 0 {
		t.Fatalf("after a commit: %d tables shared at epoch %d, want the new epoch %d's", len(now), next, set.Sys.DB.Epoch())
	}
	refilled := 0
	for ord, tab := range now {
		if tabs[ord] == tab {
			t.Fatalf("table %d of epoch %d is still shared at epoch %d", ord, epoch, next)
		}
		if old, ok := tabs[ord]; ok && proql.SharesRows(old, tab) {
			refilled++
		}
	}
	if refilled == 0 {
		t.Fatalf("no table of epoch %d refilled the arrays of epoch %d's", next, epoch)
	}
}
