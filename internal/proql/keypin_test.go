package proql_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/proql"
	"repro/internal/relstore"
	"repro/internal/workload"
)

// pinCond draws a WHERE condition that fixes every primary-key column
// of the generator's relation by an equality with the key of one stored
// row: half of the literals have the declared type, so that the path
// backend pins the path start, the others are perturbed (same
// number in the other numeric type, missing value, other type, NULL,
// the other zero), with the conjuncts in random order, further random conjuncts around them,
// and now and then the whole of it under OR or NOT, where nothing may
// be pinned.
func (g *whereGen) pinCond() proql.Cond {
	var conjuncts []proql.Cond
	row := -1
	if n := len(g.stored[0]); n > 0 {
		row = g.rng.Intn(n)
	}
	for _, col := range g.rel.Key {
		lit := g.literal(col)
		if row >= 0 {
			lit = g.perturb(g.stored[col][row])
		}
		if f, isFloat := lit.(float64); isFloat && f == 0 && g.rng.Intn(2) == 0 {
			lit = -f
		}
		l, r := g.attr(col), proql.CmpOperand{Lit: lit}
		if g.rng.Intn(4) == 0 {
			l, r = r, l
		}
		conjuncts = append(conjuncts, proql.CondCmp{Op: "=", L: l, R: r})
	}
	for n := g.rng.Intn(3); n > 0; n-- {
		conjuncts = append(conjuncts, g.cond(g.rng.Intn(2)))
	}
	g.rng.Shuffle(len(conjuncts), func(i, j int) { conjuncts[i], conjuncts[j] = conjuncts[j], conjuncts[i] })
	c := conjuncts[0]
	for _, next := range conjuncts[1:] {
		c = proql.CondAnd{L: c, R: next}
	}
	switch g.rng.Intn(10) {
	case 0:
		return proql.CondOr{L: c, R: g.cmp()}
	case 1:
		return proql.CondNot{E: c}
	}
	return c
}

// bindingRows renders a result's bindings as sorted rows over vars.
func bindingRows(res *proql.Result, vars []string) []string {
	rows := make([]string, len(res.Bindings))
	for i, b := range res.Bindings {
		parts := make([]string, len(vars))
		for j, v := range vars {
			parts[j] = b[v].String()
		}
		rows[i] = strings.Join(parts, " ")
	}
	sort.Strings(rows)
	return rows
}

// checkKeyPin runs one query on a physplan backend and on the
// tree-walking interpreter (ExecInterpreter: it matches every tuple of the
// start relation and filters afterwards, and shares no code with the
// lowering that pins keys) at one epoch and demands identical
// bindings, annotations and projected graphs.
func checkKeyPin(t *testing.T, eng *proql.Engine, q *proql.Query, backend string, asOf uint64, label string) {
	t.Helper()
	got, err := eng.Exec(context.Background(), q, proql.Options{Backend: backend, AsOfEpoch: asOf})
	if err != nil {
		t.Fatalf("%s: %s: %v", label, backend, err)
	}
	want, err := proql.ExecInterpreter(eng, context.Background(), q, asOf)
	if err != nil {
		t.Fatalf("%s: oracle: %v", label, err)
	}
	vars := q.Projection.Return
	if g, w := bindingRows(got, vars), bindingRows(want, vars); fmt.Sprint(g) != fmt.Sprint(w) {
		t.Fatalf("%s: %s bindings\n got  %v\n want %v", label, backend, g, w)
	}
	if len(got.Annotations) != len(want.Annotations) {
		t.Fatalf("%s: %s: %d annotations, oracle has %d", label, backend, len(got.Annotations), len(want.Annotations))
	}
	for ref, wv := range want.Annotations {
		if gv, ok := got.Annotations[ref]; !ok || !want.Semiring.Eq(gv, wv) {
			t.Fatalf("%s: %s: annotation of %v: got %v, want %v", label, backend, ref, gv, wv)
		}
	}
	if gs, ws := graphSignature(t, got), graphSignature(t, want); gs != ws {
		t.Fatalf("%s: %s projected graph\n got:\n%s\n want:\n%s", label, backend, gs, ws)
	}
}

// pinForms wraps a start relation and a WHERE condition over $x in
// query shapes the physplan backends serve: one path with and without a
// projected subgraph, a path to a second labelled node, an annotation
// computation, and two-path joins where the pinned path is written
// first and where it is written second.
func pinForms(t *testing.T, start, other string, where proql.Cond) []*proql.Query {
	t.Helper()
	texts := []string{
		fmt.Sprintf("FOR [%s $x] INCLUDE PATH [$x] <-+ [] RETURN $x", start),
		fmt.Sprintf("FOR [%s $x] RETURN $x", start),
		fmt.Sprintf("EVALUATE COUNT OF { FOR [%s $x] INCLUDE PATH [$x] <-+ [] RETURN $x }", start),
		fmt.Sprintf("FOR [%s $x] <-+ [$z] RETURN $x, $z", start),
	}
	if other != "" {
		texts = append(texts,
			fmt.Sprintf("FOR [%s $x] <-+ [$z], [%s $y] <-+ [$z] RETURN $x, $y", start, other),
			fmt.Sprintf("FOR [%s $y] <-+ [$z], [%s $x] <-+ [$z] INCLUDE PATH [$x] <-+ [] RETURN $x, $y", other, start),
		)
	}
	qs := make([]*proql.Query, len(texts))
	for i, text := range texts {
		qs[i] = proql.MustParse(text)
		qs[i].Projection.Where = where
	}
	return qs
}

// TestKeyPinDifferential is the correctness guard of key-seeded path
// starts: random WHERE conditions, most of them fixing the start
// relation's whole primary key, must give the same answer on the path
// backend — which starts a pinned path from one point lookup —
// as on the interpreter that enumerates and filters; live, after the
// pinned keys were deleted,
// after they were inserted again, and AS OF the epoch before all that.
func TestKeyPinDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(20100615))
	backends := []string{"path"}

	t.Run("typed", func(t *testing.T) {
		ex := typedSystem(t)
		ex.DB.SetRetention(relstore.RetainAll)
		sys := core.Wrap(ex)
		eng := sys.Engine()
		gen := newWhereGen(rng, ex, "R0")
		var conds []proql.Cond
		for i := 0; i < 120; i++ {
			if i%3 == 0 {
				conds = append(conds, gen.cond(rng.Intn(3)))
			} else {
				conds = append(conds, gen.pinCond())
			}
		}
		run := func(asOf uint64, phase string) {
			for _, where := range conds {
				for _, q := range pinForms(t, "R0", "R1", where) {
					for _, b := range backends {
						checkKeyPin(t, eng, q, b, asOf, fmt.Sprintf("%s: %s WHERE %s", phase, q.Projection.For[0], where))
					}
				}
			}
		}
		run(0, "live")
		before := sys.Epoch()
		// R2 rows 1, 4 and 7 derive R0 rows (through R1 and directly);
		// removing and restoring them removes and restores pinned keys.
		victims := []model.Tuple{{int64(1), "n1", 1.0}, {int64(4), "n4", -3.0}, {int64(7), "n2", 11.0}}
		for _, row := range victims {
			if _, err := sys.DeleteLocal("R2", row[:1]); err != nil {
				t.Fatal(err)
			}
		}
		run(0, "after deletes")
		if err := sys.InsertLocal("R2", victims...); err != nil {
			t.Fatal(err)
		}
		if err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		run(0, "after re-inserts")
		run(before, fmt.Sprintf("as of %d", before))
	})

	t.Run("chains", func(t *testing.T) {
		for trial := 0; trial < 10; trial++ {
			cfg := randomConfig(rng)
			set, err := workload.Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			set.Sys.DB.SetRetention(relstore.RetainAll)
			sys := core.Wrap(set.Sys)
			eng := sys.Engine()
			start := workload.ARel(rng.Intn(cfg.NumPeers))
			other := workload.ARel(rng.Intn(cfg.NumPeers))
			gen := newWhereGen(rng, set.Sys, start)
			label := fmt.Sprintf("trial %d (%s/%s peers=%d data=%v) %s", trial, cfg.Topology, cfg.Profile, cfg.NumPeers, cfg.DataPeers, start)
			var conds []proql.Cond
			for i := 0; i < 10; i++ {
				conds = append(conds, gen.pinCond())
			}
			run := func(asOf uint64, phase string) {
				for _, where := range conds {
					for _, q := range pinForms(t, start, other, where) {
						for _, b := range backends {
							checkKeyPin(t, eng, q, b, asOf, fmt.Sprintf("%s %s: %s WHERE %s", label, phase, q.Projection.For[0], where))
						}
					}
				}
			}
			run(0, "live")
			before := sys.Epoch()
			peer := cfg.DataPeers[rng.Intn(len(cfg.DataPeers))]
			table := set.Sys.DB.MustTable(workload.ARel(peer) + "_l")
			var victims []model.Tuple
			for d := 0; d < 3; d++ {
				key := []model.Datum{int64(peer)*10_000_000 + int64(rng.Intn(cfg.BaseSize))}
				if row, ok := table.LookupKey(key); ok {
					victims = append(victims, row)
					if _, err := sys.DeleteLocal(workload.ARel(peer), key); err != nil {
						t.Fatal(err)
					}
				}
			}
			run(0, "after deletes")
			if err := sys.InsertLocal(workload.ARel(peer), victims...); err != nil {
				t.Fatal(err)
			}
			if err := sys.Run(); err != nil {
				t.Fatal(err)
			}
			run(0, "after re-inserts")
			run(before, fmt.Sprintf("as of %d", before))
		}
	})
}

// TestKeyPinAccessPath spells out, on the typed relations R0(name
// string, score float, id int, ok bool; key name, score) and R1(id int,
// ...; key id), which WHERE conditions pin the path start (EXPLAIN
// prints start=key:) and which must stay on the label-index scan, and
// that both answer like the interpreter. The rule is probeLiteral's,
// shared with the relational pushdown (TestPushdownTypeGuard), and the
// pin needs every key column fixed by a top-level conjunct.
func TestKeyPinAccessPath(t *testing.T) {
	null := proql.CmpOperand{}
	attr := func(name string) proql.CmpOperand { return proql.CmpOperand{Var: "x", Attr: name} }
	eq := func(l, r proql.CmpOperand) proql.Cond { return proql.CondCmp{Op: "=", L: l, R: r} }
	lit := func(d model.Datum) proql.CmpOperand { return proql.CmpOperand{Lit: d} }
	for _, tc := range []struct {
		query string
		where proql.Cond // set instead of a WHERE in query for literals the syntax lacks
		start string     // the start= of $x's path
		want  int        // distinct $x bindings
	}{
		{query: `FOR [R0 $x] WHERE $x.name = 'n1' AND $x.score = 1.0 RETURN $x`, start: `key:R0(n1, 1)`, want: 1},
		{query: `FOR [R0 $x] WHERE 1.0 = $x.score AND 'n1' = $x.name RETURN $x`, start: `key:R0(n1, 1)`, want: 1},
		{query: `FOR [R0 $x] WHERE $x.name = 'n1' AND $x.ok = false AND $x.score = 1.0 RETURN $x`, start: `key:R0(n1, 1)`, want: 1},
		{query: `FOR [R0 $x] WHERE $x.name = 'zzz' AND $x.score = 1.0 RETURN $x`, start: `key:R0(zzz, 1)`, want: 0},         // pinned key absent
		{query: `FOR [R0 $x] WHERE $x.name = 'n1' AND $x.name = 'n2' AND $x.score = 1.0 RETURN $x`, start: `key:R0(n1, 1)`}, // the Filter on n2 empties it
		{query: `FOR [R0 $x] WHERE $x.name = 'n1' RETURN $x`, start: `index:rel(R0)`, want: 3},                              // partial composite key
		{query: `FOR [R0 $x] WHERE $x.name = 'n1' AND $x.score = 1 RETURN $x`, start: `index:rel(R0)`, want: 1},             // int against a float key coerces in the Filter only
		{query: `FOR [R0 $x] WHERE $x.name = 'local' AND $x.score = 0.0 RETURN $x`, start: `index:rel(R0)`, want: 1},        // float zero
		{query: `FOR [R0 $x] WHERE $x.name = 'local' AND $x.score = -0.0 RETURN $x`, start: `index:rel(R0)`, want: 1},       // -0.0 equals the stored 0.0, encodes differently
		{query: `FOR [R0 $x] WHERE $x.name = 17 AND $x.score = 1.0 RETURN $x`, start: `index:rel(R0)`},                      // mixed types
		{query: `FOR [R0 $x] WHERE $x.name = 'n1' AND $x.score >= 1.0 RETURN $x`, start: `index:rel(R0)`, want: 3},          // a range is not a key
		{query: `FOR [R0 $x] WHERE ($x.name = 'n1' AND $x.score = 1.0) OR $x.id = 3 RETURN $x`, start: `index:rel(R0)`, want: 3},
		{query: `FOR [R0 $x] WHERE NOT ($x.name = 'n1' AND $x.score = 1.0) RETURN $x`, start: `index:rel(R0)`, want: 29},
		{query: `FOR [R0 $x] WHERE $x.name = 'n1' AND NOT $x.score = 1.0 RETURN $x`, start: `index:rel(R0)`, want: 2},
		{query: `FOR [R0 $x] RETURN $x`, where: proql.CondAnd{L: eq(attr("name"), null), R: eq(attr("score"), lit(1.0))}, start: `index:rel(R0)`},
		{query: `FOR [R1 $x] WHERE $x.id = 4 RETURN $x`, start: `key:R1(4)`, want: 1},
		{query: `FOR [R1 $x] WHERE $x.id = 4.0 RETURN $x`, start: `key:R1(4)`, want: 1}, // an integral float is that integer
		{query: `FOR [R1 $x] WHERE $x.id = 4.5 RETURN $x`, start: `index:rel(R1)`},
		{query: `FOR [R1 $x] WHERE $x.id = '4' RETURN $x`, start: `index:rel(R1)`},
		{query: `FOR [R1 $x] RETURN $x`, where: eq(attr("id"), lit(math.Copysign(0, -1))), start: `key:R1(0)`, want: 1}, // integers have one zero
		{query: `FOR [$x] WHERE $x.id = 4 RETURN $x`, start: `scan:all`, want: 5},                                       // no relation, no key: R2, F, R1 and two R0 rows
		// Two paths, the second one pinned: the join starts there.
		{query: `FOR [R1 $y] <-+ [$z], [R0 $x] <-+ [$z] WHERE $x.name = 'n1' AND $x.score = 1.0 RETURN $x, $y`, start: `key:R0(n1, 1)`, want: 1},
		// The same variable starts both paths: whichever runs first is
		// pinned, the other extends it.
		{query: `FOR [R0 $x] <- [R1 $y], [R0 $x] <-+ [R2 $z] WHERE $x.name = 'n1' AND $x.score = 1.0 RETURN $x`, start: `key:R0(n1, 1)`, want: 1},
	} {
		backend := "path"
		eng := proql.NewEngine(typedSystem(t))
		opts := proql.Options{Backend: backend}
		q := proql.MustParse(tc.query)
		if tc.where != nil {
			q.Projection.Where = tc.where
		}
		label := fmt.Sprintf("%s WHERE %v on %s", tc.query, q.Projection.Where, backend)
		plan, err := eng.Explain(q, opts)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !strings.Contains(plan, "start="+tc.start) {
			t.Errorf("%s: plan does not have start=%s:\n%s", label, tc.start, plan)
		}
		if pinned := strings.HasPrefix(tc.start, "key:"); pinned != (strings.Count(plan, "start=key:") > 0) {
			t.Errorf("%s: start=key: presence, want %v:\n%s", label, pinned, plan)
		}
		checkKeyPin(t, eng, q, backend, 0, label)
		res, err := eng.Exec(context.Background(), q, opts)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if got := len(res.SortedRefs("x")); got != tc.want {
			t.Errorf("%s: %d bindings, want %d", label, got, tc.want)
		}
	}
}

// TestKeyPinKeepsErrors: a conjunct that fails on rows of the start
// relation fails whether or not a later conjunct fixes the key — the
// pin only considers conjuncts after which nothing before them can
// fail — so the backends report what the interpreter reports.
func TestKeyPinKeepsErrors(t *testing.T) {
	for _, tc := range []struct {
		where  string
		pinned bool
	}{
		{`$x.nosuch = 1 AND $x.id = 99`, false},
		{`$q.id = 1 AND $x.id = 99`, false},
		{`$x = 1 AND $x.id = 99`, false},
		// The key conjunct comes first and drops every row: the failing
		// one is never evaluated, pinned or not.
		{`$x.id = 99 AND $x.nosuch = 1`, true},
	} {
		backend := "path"
		eng := proql.NewEngine(typedSystem(t))
		opts := proql.Options{Backend: backend}
		q := proql.MustParse(`FOR [R1 $x] WHERE ` + tc.where + ` RETURN $x`)
		plan, err := eng.Explain(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Contains(plan, "start=key:"); got != tc.pinned {
			t.Errorf("%s on %s: pinned = %v, want %v:\n%s", tc.where, backend, got, tc.pinned, plan)
		}
		_, err = eng.Exec(context.Background(), q, opts)
		_, wantErr := proql.ExecInterpreter(eng, context.Background(), q, 0)
		if (err == nil) != (wantErr == nil) {
			t.Errorf("%s on %s: error %v, interpreter %v", tc.where, backend, err, wantErr)
		}
		if tc.pinned == (wantErr != nil) {
			t.Errorf("%s: interpreter error %v does not fit the case", tc.where, wantErr)
		}
	}
}

// TestExplainGraphPlans pins the physical plans of the served path
// shapes on the miniature point-read instance: the key-pinned point
// query under both older names of the path executor, which bench/
// sends (one start tuple instead of the relation; the two plans are the
// same), and the key-less common-provenance query: two relation scans under one
// DistinctJoin, the dedup on RETURN fused into the join on $z.
func TestExplainGraphPlans(t *testing.T) {
	const point = `FOR [A0 $x] WHERE $x.k = 80000003 INCLUDE PATH [$x] <-+ [] RETURN $x`
	const multipath = `FOR [A0 $x] <-+ [$z], [A1 $y] <-+ [$z] RETURN $x, $y`
	for _, tc := range []struct{ name, backend, query string }{
		{"explain_point_graph.golden", "graph", point},
		{"explain_point_asr.golden", "asr", point},
		{"explain_multipath_graph.golden", "graph", multipath},
	} {
		eng := proql.NewEngine(chainSetting(t).Sys)
		opts := proql.Options{Backend: tc.backend}
		got, err := eng.ExplainString(tc.query, opts)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, tc.name, tc.query+" on "+tc.backend, got)
	}
}
