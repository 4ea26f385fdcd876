package proql_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/asr"
	"repro/internal/fixture"
	"repro/internal/model"
	"repro/internal/proql"
	"repro/internal/relstore"
	"repro/internal/workload"
)

// constFreeQueries are the query forms whose unfolded rules carry no
// constant from the query, over anchor relation anchor: whole-target,
// TRUST, the two semirings whose ⊕ is not idempotent (a lost or extra
// derivation row changes the annotation), and a leaf CASE reading the
// non-key attribute caseAttr of leaf relation caseRel, whose atoms must
// then be joined in full rather than semi-joined.
func constFreeQueries(anchor, caseRel, caseAttr, caseLit string) []string {
	target := fmt.Sprintf("FOR [%s $x] INCLUDE PATH [$x] <-+ [] RETURN $x", anchor)
	return []string{
		target,
		"EVALUATE TRUST OF { " + target + " } ASSIGNING EACH leaf_node $y { DEFAULT : SET true }",
		"EVALUATE COUNT OF { " + target + " }",
		"EVALUATE POLYNOMIAL OF { " + target + " }",
		fmt.Sprintf("EVALUATE TRUST OF { %s } ASSIGNING EACH leaf_node $y { CASE $y in %s and $y.%s >= %s : SET false DEFAULT : SET true }",
			target, caseRel, caseAttr, caseLit),
	}
}

// checkConstFree runs one query on the relational backend and on the
// path backend and the interpreter (which share no planning code with
// it) at one epoch, and demands identical bindings, annotations and
// projected graphs. It returns the number of bindings compared.
func checkConstFree(t *testing.T, eng *proql.Engine, text string, asOf uint64, label string) int {
	t.Helper()
	label = fmt.Sprintf("%s: %s", label, text)
	q := proql.MustParse(text)
	exec := func(backend string) *proql.Result {
		t.Helper()
		res, err := eng.Exec(context.Background(), q, proql.Options{Backend: backend, AsOfEpoch: asOf})
		if backend == "interpreter" {
			res, err = proql.ExecInterpreter(eng, context.Background(), q, asOf)
		}
		if err != nil {
			t.Fatalf("%s: %s: %v", label, backend, err)
		}
		return res
	}
	got := exec("relational")
	for _, backend := range []string{"path", "interpreter"} {
		want := exec(backend)
		if g, w := got.SortedRefs("x"), want.SortedRefs("x"); fmt.Sprint(g) != fmt.Sprint(w) {
			t.Fatalf("%s: bindings\n relational %v\n %s %v", label, g, backend, w)
		}
		if len(got.Annotations) != len(want.Annotations) {
			t.Fatalf("%s: %d annotations, %s has %d", label, len(got.Annotations), backend, len(want.Annotations))
		}
		for ref, wv := range want.Annotations {
			if gv, ok := got.Annotations[ref]; !ok || !want.Semiring.Eq(gv, wv) {
				t.Fatalf("%s: annotation of %v: relational %v, %s %v", label, ref, gv, backend, wv)
			}
		}
		if gs, ws := graphSignature(t, got), graphSignature(t, want); gs != ws {
			t.Fatalf("%s: projected graph\n relational:\n%s\n %s:\n%s", label, gs, backend, ws)
		}
	}
	return len(got.SortedRefs("x"))
}

// TestConstantFreeDifferential is the correctness guard of the
// constant-free relational plans — probe-seeded join orders, primary-key
// semi-joins, elided identity projections, orders cached per compiled
// query: on random chain, branched and fan settings and on the running
// example, live, with ASR-rewritten rules, and after deletes both live
// and AS OF the epoch before them.
func TestConstantFreeDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(20100624))
	compared := 0
	for trial := 0; trial < 10; trial++ {
		cfg := randomConfig(rng)
		set, err := workload.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		set.Sys.DB.SetRetention(relstore.RetainAll)
		eng := proql.NewEngine(set.Sys)
		label := fmt.Sprintf("trial %d (%s/%s peers=%d data=%v)", trial, cfg.Topology, cfg.Profile, cfg.NumPeers, cfg.DataPeers)
		caseRel := workload.BRel(rng.Intn(cfg.NumPeers))
		queries := constFreeQueries(workload.ARel(0), caseRel, "b1", "2147483648")
		run := func(asOf uint64, phase string) {
			for _, text := range queries {
				compared += checkConstFree(t, eng, text, asOf, label+" "+phase)
			}
		}
		run(0, "live")
		checkSemiJoins(t, eng, queries, caseRel, label)
		if cfg.Profile == workload.ProfileLinear && cfg.NumPeers >= 3 {
			ix := asr.NewIndex(set.Sys)
			for _, chain := range set.AChains() {
				for _, seg := range workload.SplitChain(chain, 1+rng.Intn(3)) {
					if _, err := ix.Define(asr.Subpath, seg...); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := ix.Materialize(); err != nil {
				t.Fatal(err)
			}
			eng.RewriteRules = ix.RewriteRules
			run(0, "asr")
			eng.RewriteRules = nil
		}
		before := set.Sys.DB.Epoch()
		for d := 0; d < 2; d++ {
			peer := cfg.DataPeers[rng.Intn(len(cfg.DataPeers))]
			victim := int64(peer)*10_000_000 + int64(rng.Intn(cfg.BaseSize))
			if _, err := set.Sys.DeleteLocal(workload.ARel(peer), []model.Datum{victim}); err != nil {
				t.Fatal(err)
			}
		}
		run(before, fmt.Sprintf("as of %d", before))
		run(0, "after deletes")
	}

	sys := fixture.MustSystem(fixture.Options{})
	sys.DB.SetRetention(relstore.RetainAll)
	eng := proql.NewEngine(sys)
	queries := constFreeQueries("O", "A", "sciName", "'sn2'")
	for _, text := range queries {
		compared += checkConstFree(t, eng, text, 0, "running example")
	}
	checkSemiJoins(t, eng, queries, "A", "running example")
	before := sys.DB.Epoch()
	if _, err := sys.DeleteLocal("A", []model.Datum{int64(2)}); err != nil {
		t.Fatal(err)
	}
	for _, text := range queries {
		compared += checkConstFree(t, eng, text, before, "running example as of the delete")
		compared += checkConstFree(t, eng, text, 0, "running example after the delete")
	}
	if compared == 0 {
		t.Fatal("no bindings compared; the differential is vacuous")
	}
}

// checkSemiJoins holds the plan shapes the differential relies on: the
// whole-target plan semi-joins (else the semi-join is untested), and
// under the leaf CASE no atom of the CASE's relation is semi-joined (its
// attribute is read from the row).
func checkSemiJoins(t *testing.T, eng *proql.Engine, queries []string, caseRel, label string) {
	t.Helper()
	rel := proql.Options{Backend: "relational"} // the translation is what is checked
	target, err := eng.ExplainString(queries[0], rel)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(target, "SemiJoin(") {
		t.Errorf("%s: whole-target plan has no semi-join:\n%s", label, target)
	}
	withCase, err := eng.ExplainString(queries[len(queries)-1], rel)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(withCase, "SemiJoin("+caseRel+"_l ") {
		t.Errorf("%s: the leaf CASE reads %s, whose atoms are semi-joined:\n%s", label, caseRel, withCase)
	}
}

// instanceM is the chain instance the served analytic-read workload
// runs on: 20 peers, 3 upstream data peers, 500 local rows each.
func instanceM(t *testing.T) *workload.Setting {
	t.Helper()
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
	return set
}

// constFreeAllocBound and constFreeByteBound cap the allocations and
// bytes of one served whole-target or TRUST query on instance M. Hash
// joins over scans, with a concatenated and a projected row per step,
// made 983 k / 1.07 M allocations and 60 / 63 MB; probe pipelines with
// semi-joins make about 67 k and 6.5 MB each. A row copied at every
// semi-join step would cost about 100 k allocations and 16 MB more.
const (
	constFreeAllocBound = 150_000
	constFreeByteBound  = 16 << 20
)

// TestConstantFreeServedCounts holds, on instance M, what the
// constant-free relational plans of the served analytic-read workload's
// whole-target and TRUST queries are: no hash join and one scan per rule
// in their EXPLAIN, and an allocation and byte bound per query served
// the way proqld serves it (Eval, then the sorted refs). The backend is
// pinned: auto answers the whole-target query on path.
func TestConstantFreeServedCounts(t *testing.T) {
	set := instanceM(t)
	eng := proql.NewEngine(set.Sys)
	opts := proql.Options{Backend: "relational"}
	for _, text := range []string{set.TargetQuery(), set.TargetAnnotationQuery()} {
		q := proql.MustParse(text)
		plan, err := eng.Explain(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		rules := strings.Count(plan, "\n-- rule ")
		if n := strings.Count(plan, "HashJoin("); n != 0 {
			t.Errorf("%s: %d hash joins in the plan, want 0", text, n)
		}
		if n := strings.Count(plan, "Scan("); n != rules {
			t.Errorf("%s: %d scans in %d rules, want one per rule", text, n, rules)
		}
		rows := 0
		serve := func() {
			res, err := eng.Eval(context.Background(), q, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range res.Vars() {
				res.SortedRefs(v)
			}
			rows = res.Len()
		}
		allocs := testing.AllocsPerRun(2, serve)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		serve()
		runtime.ReadMemStats(&after)
		bytes := after.TotalAlloc - before.TotalAlloc
		if rows != 1500 {
			t.Errorf("%s: %d rows, want 1,500", text, rows)
		}
		if allocs > constFreeAllocBound {
			t.Errorf("%s: %.0f allocations per query, bound %d", text, allocs, constFreeAllocBound)
		}
		if bytes > constFreeByteBound {
			t.Errorf("%s: %d bytes allocated per query, bound %d", text, bytes, constFreeByteBound)
		}
		t.Logf("%s: %d rules, %.0f allocations, %d bytes", text, rules, allocs, bytes)
	}
}

// TestCancelStopsRuleWorkers: a relational query whose cancel func
// fires on its first poll after the anchor read, while its rules are
// being evaluated, returns that error, and nothing runs behind it: no
// further poll and no further rule row read — the rules of a cancelled
// query stop rather than run to completion behind its error.
func TestCancelStopsRuleWorkers(t *testing.T) {
	set := instanceM(t)
	eng := proql.NewEngine(set.Sys)
	q := proql.MustParse(set.TargetQuery())
	anchor, ok := set.Sys.DB.Table(workload.ARel(0))
	if !ok {
		t.Fatalf("no table %s", workload.ARel(0))
	}
	// The anchor read polls once per anchor row and once at its end;
	// the poll after those is the first rule's.
	first := anchor.Len() + 2
	var polls, reads int
	q.Cancel = func() error { polls++; return nil }
	if err := proql.EvalCountingRuleRows(eng, q, func() { reads++ }); err != nil {
		t.Fatal(err)
	}
	if polls <= first || reads == 0 {
		t.Fatalf("uncancelled query polled %d times and read %d rule rows; want more than %d polls and some rows", polls, reads, first)
	}

	stop := errors.New("stop")
	var readsAtStop int
	for _, arm := range []struct {
		name string
		eval func() error
	}{
		{"Eval", func() error { _, err := eng.Eval(context.Background(), q, proql.Options{}); return err }},
		{"counting", func() error { return proql.EvalCountingRuleRows(eng, q, func() { reads++ }) }},
	} {
		polls, reads = 0, 0
		q.Cancel = func() error {
			polls++
			switch {
			case polls == first:
				readsAtStop = reads
				return stop
			case polls > first:
				t.Errorf("%s: poll %d after cancel fired", arm.name, polls)
				return stop
			}
			return nil
		}
		if err := arm.eval(); !errors.Is(err, stop) {
			t.Errorf("%s = %v, want %v", arm.name, err, stop)
		}
		if polls != first {
			t.Errorf("%s: %d polls, want cancel to fire on poll %d", arm.name, polls, first)
		}
		if reads != readsAtStop {
			t.Errorf("%s: %d rule rows read after cancel fired", arm.name, reads-readsAtStop)
		}
	}
}
