package proql_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fixture"
	"repro/internal/model"
	"repro/internal/proql"
	"repro/internal/relstore"
	"repro/internal/workload"
)

// multipathShape is one multi-path query form. fused says whether the
// planner may fuse the dedup on RETURN into the last join; anyRep marks
// the form whose projected graph depends on which row Dedup keeps per
// RETURN combination (an INCLUDE over the non-returned $z).
type multipathShape struct {
	name   string
	query  string
	fused  bool
	anyRep bool
}

// multipathShapes instantiates the forms over three relations.
func multipathShapes(r1, r2, r3 string) []multipathShape {
	common := fmt.Sprintf("[%s $x] <-+ [$z], [%s $y] <-+ [$z]", r1, r2)
	both := "INCLUDE PATH [$x] <-+ [], [$y] <-+ []"
	return []multipathShape{
		{"shared tuple variable", fmt.Sprintf("FOR %s RETURN $x, $y", common), true, false},
		// $p is joined, not extended: the second path reaches it past its
		// start ($v is a target of $p, so $v = $x and $y is derived from $x).
		{"shared derivation variable", fmt.Sprintf("FOR [%s $x] <$p [$u], [$y] <- [$v] <$p [] RETURN $x, $y", r2), true, false},
		{"three paths", fmt.Sprintf("FOR %s, [%s $w] <-+ [$z] RETURN $x, $y, $w", common, r3), true, false},
		{"three paths, four columns", fmt.Sprintf("FOR %s, [%s $w] <-+ [$z] RETURN $w, $z, $y, $x", common, r3), true, false},
		{"cross product", fmt.Sprintf("FOR [%s $x] <- [$u], [%s $y] RETURN $x, $y", r1, r2), true, false},
		{"include returned", fmt.Sprintf("FOR %s %s RETURN $x, $y", common, both), true, false},
		{"include non-returned", fmt.Sprintf("FOR %s INCLUDE PATH [$z] <-+ [] RETURN $x, $y", common), false, true},
		{"where non-returned", fmt.Sprintf("FOR %s WHERE NOT $z IN %s RETURN $x, $y", common, r3), false, false},
		{"evaluate", fmt.Sprintf("EVALUATE DERIVABILITY OF { FOR %s %s RETURN $x, $y }", common, both), true, false},
	}
}

// checkMultipath runs one query on the graph and asr backends and on
// the tree-walking interpreter (ExecInterpreter, which shares no code with
// physplan) and demands identical bindings, SortedRefs, annotations
// and projected graphs — except the projected graph of an anyRep form,
// which only the two physplan backends must agree on, and not under a
// parallel scan. Eval must answer what Exec answers, without bindings.
func checkMultipath(t *testing.T, eng *proql.Engine, sh multipathShape, asOf uint64, label string) int {
	t.Helper()
	label = fmt.Sprintf("%s: %s: %s", label, sh.name, sh.query)
	q := proql.MustParse(sh.query)
	exec := func(backend string) *proql.Result {
		t.Helper()
		res, err := eng.Exec(context.Background(), q, proql.Options{Backend: backend, AsOfEpoch: asOf})
		if err != nil {
			t.Fatalf("%s: %s: %v", label, backend, err)
		}
		return res
	}
	want, err := proql.ExecInterpreter(eng, context.Background(), q, asOf)
	if err != nil {
		t.Fatalf("%s: interpreter: %v", label, err)
	}
	vars := q.Projection.Return
	var physGraph string
	for _, backend := range []string{"graph", "asr"} {
		got := exec(backend)
		if g, w := bindingRows(got, vars), bindingRows(want, vars); !slices.Equal(g, w) {
			t.Fatalf("%s: %s bindings\n got  %v\n want %v", label, backend, g, w)
		}
		for _, v := range vars {
			if g, w := got.SortedRefs(v), want.SortedRefs(v); !slices.Equal(g, w) {
				t.Fatalf("%s: %s SortedRefs($%s)\n got  %v\n want %v", label, backend, v, g, w)
			}
		}
		if len(got.Annotations) != len(want.Annotations) {
			t.Fatalf("%s: %s: %d annotations, oracle has %d", label, backend, len(got.Annotations), len(want.Annotations))
		}
		for ref, wv := range want.Annotations {
			if gv, ok := got.Annotations[ref]; !ok || !want.Semiring.Eq(gv, wv) {
				t.Fatalf("%s: %s: annotation of %v: got %v, want %v", label, backend, ref, gv, wv)
			}
		}
		gs := graphSignature(t, got)
		switch {
		case !sh.anyRep:
			if ws := graphSignature(t, want); gs != ws {
				t.Fatalf("%s: %s projected graph\n got:\n%s\n want:\n%s", label, backend, gs, ws)
			}
		case physGraph == "":
			physGraph = gs
		case gs != physGraph:
			t.Fatalf("%s: asr projected graph\n got:\n%s\n graph backend:\n%s", label, gs, physGraph)
		}

		lean, err := eng.Eval(context.Background(), q, proql.Options{Backend: backend, AsOfEpoch: asOf})
		if err != nil {
			t.Fatalf("%s: %s Eval: %v", label, backend, err)
		}
		if lean.Bindings != nil || lean.Len() != len(got.Bindings) {
			t.Fatalf("%s: %s Eval: %d bindings materialized, Len %d; Exec has %d rows", label, backend, len(lean.Bindings), lean.Len(), len(got.Bindings))
		}
		for _, v := range vars {
			if g, w := lean.SortedRefs(v), got.SortedRefs(v); !slices.Equal(g, w) {
				t.Fatalf("%s: %s Eval SortedRefs($%s) differs from Exec's", label, backend, v)
			}
		}
	}
	if plan, err := eng.Explain(q, proql.Options{}); err != nil {
		t.Fatalf("%s: %v", label, err)
	} else if fused := strings.Contains(plan, "DistinctJoin("); fused != sh.fused {
		t.Fatalf("%s: DistinctJoin in plan = %v, want %v:\n%s", label, fused, sh.fused, plan)
	}
	return len(want.Bindings)
}

// TestMultiPathDifferential is the correctness guard of the distinct
// join and of the compact result rows: every multi-path form, on
// random chain and branched settings and on the cyclic running example,
// live, after deletes, and AS OF the epoch before them.
func TestMultiPathDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(20100608))
	rows := map[string]int{} // per form, so none is vacuous
	for trial := 0; trial < 12; trial++ {
		cfg := randomConfig(rng)
		cfg.NumPeers = 3 + rng.Intn(3) // keep the interpreter tractable
		cfg.BaseSize = 4 + rng.Intn(8)
		cfg.DataPeers = workload.UpstreamDataPeers(cfg.NumPeers, 1+rng.Intn(cfg.NumPeers))
		set, err := workload.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		set.Sys.DB.SetRetention(relstore.RetainAll)
		sys := core.Wrap(set.Sys)
		label := fmt.Sprintf("trial %d (%s/%s peers=%d data=%v)", trial, cfg.Topology, cfg.Profile, cfg.NumPeers, cfg.DataPeers)
		shapes := multipathShapes(workload.ARel(0), workload.ARel(1+rng.Intn(cfg.NumPeers-1)), workload.ARel(rng.Intn(cfg.NumPeers)))
		for _, sh := range shapes {
			rows[sh.name] += checkMultipath(t, sys.Engine(), sh, 0, label+" live")
		}
		before := sys.Epoch()
		peer := cfg.DataPeers[rng.Intn(len(cfg.DataPeers))]
		for d := 0; d < 2; d++ {
			key := []model.Datum{int64(peer)*10_000_000 + int64(rng.Intn(cfg.BaseSize))}
			if _, err := sys.DeleteLocal(workload.ARel(peer), key); err != nil {
				t.Fatal(err)
			}
		}
		for _, sh := range shapes {
			rows[sh.name] += checkMultipath(t, sys.Engine(), sh, 0, label+" after deletes")
			rows[sh.name] += checkMultipath(t, sys.Engine(), sh, before, fmt.Sprintf("%s as of %d", label, before))
		}
	}

	cyclic := proql.NewEngine(fixture.MustSystem(fixture.Options{IncludeM3: true}))
	for _, sh := range multipathShapes("N", "C", "O") {
		rows["cyclic "+sh.name] += checkMultipath(t, cyclic, sh, 0, "cyclic")
	}
	for name, n := range rows {
		t.Logf("%s: %d rows compared", name, n)
		if n == 0 {
			t.Errorf("%s: no rows in any setting; the comparison is vacuous", name)
		}
	}
}

// servedAllocBound and servedByteBound cap the allocations and bytes
// of one served common-provenance query on instance M. The executor
// that built a binding map per row and cloned every join row made
// 8.26 M allocations and 394 MB; the distinct join with a row per match
// and per pair made about 39 k and 37 MB; answer cells make about 6.5 k
// and 10 MB. A join materialized before its dedup — 2.4 M rows, 77 MB
// of cells alone — breaks the byte bound, and so would a row per match
// and per pair.
const (
	servedAllocBound = 100_000
	servedByteBound  = 16 << 20
)

// TestMultiPathServedAllocs runs the served analytic workload's
// common-provenance query on instance M the way proqld does — Eval,
// then the sorted refs of every variable — and holds its exact answer
// size and the allocation and byte bounds, on both physplan backends.
func TestMultiPathServedAllocs(t *testing.T) {
	eng := proql.NewEngine(instanceM(t).Sys)
	q := proql.MustParse("FOR [A0 $x] <-+ [$z], [A1 $y] <-+ [$z] RETURN $x, $y")
	for _, backend := range []string{"graph", "asr"} {
		rows := 0
		serve := func() {
			res, err := eng.Eval(context.Background(), q, proql.Options{Backend: backend})
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range res.Vars() {
				res.SortedRefs(v)
			}
			rows = res.Len()
		}
		allocs := testing.AllocsPerRun(2, serve) // fills the plan cache first
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		serve()
		runtime.ReadMemStats(&after)
		bytes := after.TotalAlloc - before.TotalAlloc
		if rows != 140_652 {
			t.Errorf("%s: %d rows, want 140,652", backend, rows)
		}
		if allocs > servedAllocBound {
			t.Errorf("%s: %.0f allocations per query, bound %d", backend, allocs, servedAllocBound)
		}
		if bytes > servedByteBound {
			t.Errorf("%s: %d bytes allocated per query, bound %d", backend, bytes, servedByteBound)
		}
		t.Logf("%s: %d rows, %.0f allocations, %d bytes", backend, rows, allocs, bytes)
	}
}

// pollCtx is a context whose Err — the cancel poll Eval wires into
// the plan — counts its calls and reports context.Canceled from call
// stop on (never, when stop is 0).
type pollCtx struct {
	context.Context
	stop, polls int
}

func (c *pollCtx) Done() <-chan struct{} { return make(chan struct{}) }

func (c *pollCtx) Err() error {
	if c.polls++; c.stop > 0 && c.polls >= c.stop {
		return context.Canceled
	}
	return nil
}

// TestMultiPathEvalCancel: a multi-path query cancelled at any poll —
// in either drain of the distinct join, in its pair emission, or at the
// check after it — makes Eval return the context error and no result,
// and polls no more after the poll that saw it.
func TestMultiPathEvalCancel(t *testing.T) {
	eng := proql.NewEngine(instanceS(t).Sys)
	q := proql.MustParse("FOR [A0 $x] <-+ [$z], [A1 $y] <-+ [$z] RETURN $x, $y")
	for _, backend := range []string{"graph", "asr"} {
		free := &pollCtx{Context: context.Background()}
		res, err := eng.Eval(free, q, proql.Options{Backend: backend})
		if err != nil || res.Len() == 0 {
			t.Fatalf("%s: uncancelled query: %v, %d rows", backend, err, res.Len())
		}
		all := free.polls
		for _, stop := range []int{1, all / 3, 2 * all / 3, all - 1, all} {
			ctx := &pollCtx{Context: context.Background(), stop: stop}
			res, err := eng.Eval(ctx, q, proql.Options{Backend: backend})
			if !errors.Is(err, context.Canceled) || res != nil {
				t.Errorf("%s: cancelled at poll %d of %d: result %v, error %v; want none and %v",
					backend, stop, all, res, err, context.Canceled)
			}
			if ctx.polls != stop {
				t.Errorf("%s: cancelled at poll %d of %d: polled %d times", backend, stop, all, ctx.polls)
			}
		}
	}
}
