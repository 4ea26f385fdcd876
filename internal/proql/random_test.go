package proql_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/asr"
	"repro/internal/model"
	"repro/internal/proql"
	"repro/internal/relstore"
	"repro/internal/workload"
)

// randomConfig draws a small random CDSS setting.
func randomConfig(rng *rand.Rand) workload.Config {
	topo := workload.Chain
	if rng.Intn(2) == 1 {
		topo = workload.Branched
	}
	profile := workload.ProfileLinear
	if rng.Intn(3) == 0 {
		profile = workload.ProfileFan
	}
	n := 2 + rng.Intn(5) // 2..6 peers
	// Random non-empty subset of peers with data.
	var data []int
	for p := 0; p < n; p++ {
		if rng.Intn(2) == 0 {
			data = append(data, p)
		}
	}
	if len(data) == 0 {
		data = append(data, n-1)
	}
	return workload.Config{
		Topology:   topo,
		Profile:    profile,
		NumPeers:   n,
		DataPeers:  data,
		BaseSize:   3 + rng.Intn(10),
		Categories: 4,
		Seed:       rng.Int63(),
	}
}

// TestRandomSettingsBackendParity generates random settings and
// cross-checks the relational and asr (as "graph") backends on the
// target query and its trust evaluation — the strongest end-to-end
// invariant the system has — and whatever auto routes each query to
// against the interpreter, projected graph included.
func TestRandomSettingsBackendParity(t *testing.T) {
	rng := rand.New(rand.NewSource(20100611))
	for trial := 0; trial < 25; trial++ {
		cfg := randomConfig(rng)
		label := fmt.Sprintf("trial %d (%s/%s peers=%d data=%v base=%d)",
			trial, cfg.Topology, cfg.Profile, cfg.NumPeers, cfg.DataPeers, cfg.BaseSize)
		set, err := workload.Build(cfg)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		eng := proql.NewEngine(set.Sys)
		for _, text := range []string{
			set.TargetQuery(),
			set.TargetAnnotationQuery(),
		} {
			q := proql.MustParse(text)
			rel, err := eng.Exec(context.Background(), q, proql.Options{Backend: "relational"})
			if err != nil {
				t.Fatalf("%s: relational: %v", label, err)
			}
			gr, err := eng.Exec(context.Background(), q, proql.Options{Backend: "graph"})
			if err != nil {
				t.Fatalf("%s: graph: %v", label, err)
			}
			leg, err := proql.ExecInterpreter(eng, context.Background(), q, 0)
			if err != nil {
				t.Fatalf("%s: interpreter: %v", label, err)
			}
			auto, err := eng.Exec(context.Background(), q, proql.Options{})
			if err != nil {
				t.Fatalf("%s: auto: %v", label, err)
			}
			if fmt.Sprint(auto.SortedRefs("x")) != fmt.Sprint(leg.SortedRefs("x")) {
				t.Fatalf("%s: bindings differ on auto (%s) and the interpreter", label, auto.Stats.Backend)
			}
			if as, ls := graphSignature(t, auto), graphSignature(t, leg); as != ls {
				t.Errorf("%s: projected graph on auto (%s): only on the interpreter:\n%s\n only on auto:\n%s",
					label, auto.Stats.Backend, lineDiff(ls, as), lineDiff(as, ls))
			}
			for ref, lv := range leg.Annotations {
				if v, ok := auto.Annotations[ref]; !ok || !leg.Semiring.Eq(lv, v) {
					t.Errorf("%s: annotation of %v: %v on auto (%s), interpreter %v", label, ref, v, auto.Stats.Backend, lv)
				}
			}
			if len(auto.Annotations) != len(leg.Annotations) {
				t.Errorf("%s: %d annotations on auto, the interpreter has %d", label, len(auto.Annotations), len(leg.Annotations))
			}
			relRefs := rel.SortedRefs("x")
			grRefs := gr.SortedRefs("x")
			legRefs := leg.SortedRefs("x")
			if len(relRefs) != len(grRefs) || len(relRefs) != len(legRefs) {
				t.Fatalf("%s: bindings %d (relational) vs %d (planned) vs %d (interpreter)",
					label, len(relRefs), len(grRefs), len(legRefs))
			}
			for i := range relRefs {
				if relRefs[i] != grRefs[i] || relRefs[i] != legRefs[i] {
					t.Fatalf("%s: binding %d differs", label, i)
				}
			}
			if rs, gs, ls := graphSignature(t, rel), graphSignature(t, gr), graphSignature(t, leg); rs != gs || ls != gs {
				t.Errorf("%s: projected graphs differ: relational/planned %v, interpreter/planned %v", label, rs == gs, ls == gs)
			}
			if rel.Annotations != nil {
				for ref, v := range rel.Annotations {
					gv, ok := gr.Annotations[ref]
					if !ok || !rel.Semiring.Eq(v, gv) {
						t.Errorf("%s: annotation mismatch for %v", label, ref)
					}
					lv, ok := leg.Annotations[ref]
					if !ok || !rel.Semiring.Eq(v, lv) {
						t.Errorf("%s: interpreter annotation mismatch for %v", label, ref)
					}
				}
			}
			// Every tuple of the target relation is derivable: the
			// binding count must equal the materialized table size.
			if got, want := len(relRefs), set.Sys.DB.MustTable(workload.ARel(0)).Len(); got != want {
				t.Errorf("%s: bindings %d, table has %d", label, got, want)
			}
		}
	}
}

// randomQuery draws a random ProQL query over a setting's A relations.
// The shapes cover both backends: anchored single-path queries the
// relational translation handles, and multi-path / derivation-variable
// / path-condition queries that route to the asr backend.
func randomQuery(rng *rand.Rand, numPeers int) (string, []string) {
	mid := 1 + rng.Intn(numPeers-1)
	any := rng.Intn(numPeers)
	switch rng.Intn(6) {
	case 0:
		return fmt.Sprintf(`FOR [%s $x] INCLUDE PATH [$x] <-+ [] RETURN $x`, workload.ARel(any)), []string{"x"}
	case 1:
		return fmt.Sprintf(`FOR [%s $x] <-+ [%s $y] RETURN $x`, workload.ARel(0), workload.ARel(mid)), []string{"x"}
	case 2:
		return fmt.Sprintf(`FOR [%s $x] <-+ [$z], [%s $y] <-+ [$z] RETURN $x, $y`,
			workload.ARel(0), workload.ARel(mid)), []string{"x", "y"}
	case 3:
		return fmt.Sprintf(`FOR [$x] <$p [%s $y] RETURN $x, $y`, workload.ARel(any)), []string{"x", "y"}
	case 4:
		return fmt.Sprintf(`FOR [%s $x] WHERE $x.c >= %d RETURN $x`, workload.ARel(any), rng.Intn(4)), []string{"x"}
	default:
		return fmt.Sprintf(`FOR [%s $x] WHERE [$x] <-+ [%s] RETURN $x`, workload.ARel(0), workload.ARel(mid)), []string{"x"}
	}
}

// diffQuery is one query of the differential. relGraph says whether
// the relational backend's projected graph must match too: it does for
// a whole-ancestry INCLUDE ([$x] <-+ [] on a single-node FOR) and for
// queries without INCLUDE, but the relational translation projects only
// derivation trees inside the matched schema subgraph, so it drops part
// of every other INCLUDE form's projection.
type diffQuery struct {
	text     string
	vars     []string
	relGraph bool
}

// includeShapes are INCLUDE forms off the ancestor-BFS fast path, over
// the target relation, a middle relation mid and the top relation top
// (whose tuples have no derivations): a direct mapping edge, <-+ to a
// labelled node, two include paths (one ending at a bound variable), an
// include over a non-returned variable whose starts match no path, and
// EVALUATE over one and two include paths.
func includeShapes(mid, top string) []diffQuery {
	a0, x, xy := workload.ARel(0), []string{"x"}, []string{"x", "y"}
	return []diffQuery{
		{fmt.Sprintf("FOR [%s $x] INCLUDE PATH [$x] <%s [] RETURN $x", a0, workload.AMapping(1)), x, false},
		{fmt.Sprintf("FOR [%s $x] INCLUDE PATH [$x] <-+ [%s] RETURN $x", a0, mid), x, false},
		{fmt.Sprintf("FOR [%s $x] <-+ [%s $y] INCLUDE PATH [$x] <-+ [$y], [$y] <-+ [] RETURN $x, $y", a0, mid), xy, false},
		{fmt.Sprintf("FOR [%s $x] <-+ [%s $y] INCLUDE PATH [$y] <-+ [] RETURN $x", a0, top), x, false},
		{fmt.Sprintf("EVALUATE COUNT OF { FOR [%s $x] INCLUDE PATH [$x] <-+ [] RETURN $x }", a0), x, true},
		{fmt.Sprintf("EVALUATE DERIVABILITY OF { FOR [%s $x] <-+ [%s $y] INCLUDE PATH [$x] <-+ [], [$y] <-+ [] RETURN $x, $y }", a0, mid), xy, false},
	}
}

// TestRandomQueriesDifferential generates random queries over random
// settings and cross-checks every evaluation path the engine has: the
// relational translation (forced, on the queries it covers), the
// automatically chosen backend (Exec), the planned graph pipeline and
// the asr backend must agree with the tree-walking interpreter on
// bindings, annotations and the whole projected graph — derivation
// IDs, each derivation's ordered sources and targets, and every tuple
// node with its row and leaf mark (see diffQuery for where the
// relational backend's graph is held).
func TestRandomQueriesDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(20260728))
	relational := 0
	for trial := 0; trial < 20; trial++ {
		cfg := randomConfig(rng)
		cfg.NumPeers = 2 + rng.Intn(3) // keep the interpreter tractable
		cfg.BaseSize = 3 + rng.Intn(5)
		cfg.DataPeers = workload.UpstreamDataPeers(cfg.NumPeers, 1+rng.Intn(cfg.NumPeers))
		set, err := workload.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		eng := proql.NewEngine(set.Sys)
		queries := includeShapes(workload.ARel(1+rng.Intn(cfg.NumPeers-1)), workload.ARel(cfg.NumPeers-1))
		for qi := 0; qi < 4; qi++ {
			text, vars := randomQuery(rng, cfg.NumPeers)
			queries = append(queries, diffQuery{text, vars, true})
		}
		for _, dq := range queries {
			label := fmt.Sprintf("trial %d query %q", trial, dq.text)
			q := proql.MustParse(dq.text)
			want, err := proql.ExecInterpreter(eng, context.Background(), q, 0)
			if err != nil {
				t.Fatalf("%s: interpreter: %v", label, err)
			}
			wantGraph := graphSignature(t, want)
			for _, backend := range []string{"relational", "auto", "graph", "asr"} {
				res, err := eng.Exec(context.Background(), q, proql.Options{Backend: backend})
				var nr *proql.ErrNotRelational
				if backend == "relational" && errors.As(err, &nr) {
					continue
				}
				if err != nil {
					t.Fatalf("%s: %s: %v", label, backend, err)
				}
				backend = res.Stats.Backend
				for _, v := range dq.vars {
					if w, g := want.SortedRefs(v), res.SortedRefs(v); fmt.Sprint(w) != fmt.Sprint(g) {
						t.Fatalf("%s: $%s bindings\n interpreter %v\n %s %v", label, v, w, backend, g)
					}
				}
				if len(res.Annotations) != len(want.Annotations) {
					t.Fatalf("%s: %d annotations on %s, the interpreter has %d", label, len(res.Annotations), backend, len(want.Annotations))
				}
				for ref, wv := range want.Annotations {
					if v, ok := res.Annotations[ref]; !ok || !want.Semiring.Eq(wv, v) {
						t.Fatalf("%s: annotation of %v: %v on %s, interpreter %v", label, ref, v, backend, wv)
					}
				}
				if backend == "relational" {
					relational++
					if !dq.relGraph {
						continue
					}
				}
				if got := graphSignature(t, res); got != wantGraph {
					t.Fatalf("%s: projected graph: only on the interpreter:\n%s\n only on %s:\n%s", label,
						lineDiff(wantGraph, got), backend, lineDiff(got, wantGraph))
				}
			}
		}
	}
	if relational == 0 {
		t.Error("no query ran on the relational backend")
	}
}

// lineDiff lists the lines of a that b lacks.
func lineDiff(a, b string) string {
	in := map[string]bool{}
	for _, l := range strings.Split(b, "\n") {
		in[l] = true
	}
	var out []string
	for _, l := range strings.Split(a, "\n") {
		if !in[l] {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}

// TestRandomASRPreservation defines random ASR configurations over
// random linear settings and verifies rewritten queries return
// identical results.
func TestRandomASRPreservation(t *testing.T) {
	rng := rand.New(rand.NewSource(18071807))
	kinds := []asr.Kind{asr.CompletePath, asr.Subpath, asr.Prefix, asr.Suffix}
	for trial := 0; trial < 15; trial++ {
		cfg := randomConfig(rng)
		cfg.Profile = workload.ProfileLinear // long chains for meaningful ASRs
		cfg.NumPeers = 4 + rng.Intn(6)       // 4..9
		cfg.DataPeers = workload.UpstreamDataPeers(cfg.NumPeers, 1+rng.Intn(3))
		set, err := workload.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		eng := proql.NewEngine(set.Sys)
		opts := proql.Options{Backend: "relational"} // the rewrite applies to the translation only
		q := proql.MustParse(set.TargetQuery())
		base, err := eng.Exec(context.Background(), q, opts)
		if err != nil {
			t.Fatal(err)
		}
		kind := kinds[rng.Intn(len(kinds))]
		maxLen := 1 + rng.Intn(5)
		ix := asr.NewIndex(set.Sys)
		for _, chain := range set.AChains() {
			for _, seg := range workload.SplitChain(chain, maxLen) {
				if _, err := ix.Define(kind, seg...); err != nil {
					t.Fatalf("trial %d: define %v over %v: %v", trial, kind, seg, err)
				}
			}
		}
		if err := ix.Materialize(); err != nil {
			t.Fatal(err)
		}
		eng.RewriteRules = ix.RewriteRules
		opt, err := eng.Exec(context.Background(), q, opts)
		if err != nil {
			t.Fatalf("trial %d (%v len=%d): %v", trial, kind, maxLen, err)
		}
		baseRefs := base.SortedRefs("x")
		optRefs := opt.SortedRefs("x")
		if len(baseRefs) != len(optRefs) {
			t.Fatalf("trial %d (%v len=%d): bindings %d vs %d", trial, kind, maxLen, len(baseRefs), len(optRefs))
		}
		for i := range baseRefs {
			if baseRefs[i] != optRefs[i] {
				t.Fatalf("trial %d: binding %d differs", trial, i)
			}
		}
		if b, o := graphSignature(t, base), graphSignature(t, opt); b != o {
			t.Errorf("trial %d (%v len=%d): projected graph\n without ASRs:\n%s\n with:\n%s", trial, kind, maxLen, b, o)
		}
	}
}

// TestRandomDeletionMatchesRebuild deletes random base tuples and
// compares the incrementally maintained instance against a rebuilt
// one.
func TestRandomDeletionMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(424242))
	for trial := 0; trial < 10; trial++ {
		cfg := randomConfig(rng)
		cfg.Profile = workload.ProfileLinear
		set, err := workload.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Pick a random data peer and delete a random base tuple.
		peer := cfg.DataPeers[rng.Intn(len(cfg.DataPeers))]
		victim := int64(peer)*10_000_000 + int64(rng.Intn(cfg.BaseSize))
		if _, err := set.Sys.DeleteLocal(workload.ARel(peer), []model.Datum{victim}); err != nil {
			t.Fatal(err)
		}
		// The target query must still satisfy bindings == table size
		// and all-derivable trust.
		eng := proql.NewEngine(set.Sys)
		res, err := eng.ExecString(set.TargetAnnotationQuery())
		if err != nil {
			t.Fatal(err)
		}
		if got, want := len(res.SortedRefs("x")), set.Sys.DB.MustTable(workload.ARel(0)).Len(); got != want {
			t.Errorf("trial %d: bindings %d, table %d", trial, got, want)
		}
		for ref, v := range res.Annotations {
			if v != true {
				t.Errorf("trial %d: %v survived maintenance but is not derivable", trial, ref)
			}
		}
	}
}

// TestRandomASRBackendAfterChurn cross-checks the path executor (the
// asr backend and its graph alias) against the interpreter, and against
// the relational translation where it covers the query, on random
// queries issued immediately after deletion and insertion churn. The
// path executor names tuples and derivations by storage slot, so the
// churn moves slots under it: a key deleted and re-inserted lives at a
// new slot, and without retention the sweep hands reclaimed slots to
// later inserts between queries. One trial in three keeps every epoch
// and adds an AS OF arm, which reads the versions the churn superseded.
// The interpreter walks a graph built afresh from the tables.
func TestRandomASRBackendAfterChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	for trial := 0; trial < 12; trial++ {
		cfg := randomConfig(rng)
		cfg.Profile = workload.ProfileLinear
		cfg.NumPeers = 2 + rng.Intn(3)
		cfg.DataPeers = workload.UpstreamDataPeers(cfg.NumPeers, 1+rng.Intn(cfg.NumPeers))
		set, err := workload.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		asOfArm := trial%3 == 2
		switch trial % 3 {
		case 1:
			set.Sys.DB.SetRetention(1)
		case 2:
			set.Sys.DB.SetRetention(relstore.RetainAll)
		}
		eng := proql.NewEngine(set.Sys)
		if _, err := eng.Exec(context.Background(), proql.MustParse(set.TargetQuery()), proql.Options{Backend: "asr"}); err != nil {
			t.Fatalf("trial %d: asr before churn: %v", trial, err)
		}
		for round := 0; round < 4; round++ {
			before := set.Sys.DB.Epoch()
			src := cfg.DataPeers[rng.Intn(len(cfg.DataPeers))]
			rel := workload.ARel(src)
			switch rng.Intn(3) {
			case 0:
				victim := int64(src)*10_000_000 + int64(rng.Intn(cfg.BaseSize))
				if _, err := set.Sys.DeleteLocal(rel, []model.Datum{victim}); err != nil {
					t.Fatalf("trial %d round %d: delete: %v", trial, round, err)
				}
			case 1:
				k := int64(src)*10_000_000 + int64(cfg.BaseSize) + int64(100*trial+round)
				row := model.Tuple{k, k % int64(cfg.Categories)}
				for a := 0; a < 10; a++ {
					row = append(row, k+int64(a))
				}
				if err := set.Sys.InsertLocal(rel, row); err != nil {
					t.Fatalf("trial %d round %d: insert: %v", trial, round, err)
				}
				if _, err := set.Sys.RunDelta(); err != nil {
					t.Fatalf("trial %d round %d: delta: %v", trial, round, err)
				}
			default:
				// Delete a key and insert it again: the tuple and its
				// copies downstream come back at new slots.
				key := []model.Datum{int64(src)*10_000_000 + int64(rng.Intn(cfg.BaseSize))}
				row, ok := set.Sys.DB.MustTable(rel).LookupKey(key)
				if !ok {
					continue // deleted in an earlier round
				}
				if _, err := set.Sys.DeleteLocal(rel, key); err != nil {
					t.Fatalf("trial %d round %d: delete: %v", trial, round, err)
				}
				if err := set.Sys.InsertLocal(rel, row); err != nil {
					t.Fatalf("trial %d round %d: re-insert: %v", trial, round, err)
				}
				if _, err := set.Sys.RunDelta(); err != nil {
					t.Fatalf("trial %d round %d: delta: %v", trial, round, err)
				}
			}
			text, vars := randomQuery(rng, cfg.NumPeers)
			where := fmt.Sprintf("trial %d round %d %q", trial, round, text)
			checkPathAfterChurn(t, eng, proql.MustParse(text), vars, 0, where)
			if asOfArm {
				checkPathAfterChurn(t, eng, proql.MustParse(text), vars, before, fmt.Sprintf("%s as of %d", where, before))
			}
		}
	}
}

// checkPathAfterChurn runs q at epoch asOf (0: the newest) on both
// names of the path executor, the interpreter and — when it covers q —
// the relational translation. Every answer must bind what the
// interpreter binds, and the path executor must project its graph.
func checkPathAfterChurn(t *testing.T, eng *proql.Engine, q *proql.Query, vars []string, asOf uint64, where string) {
	t.Helper()
	want, err := proql.ExecInterpreter(eng, context.Background(), q, asOf)
	if err != nil {
		t.Fatalf("%s: interpreter: %v", where, err)
	}
	ws := graphSignature(t, want)
	for _, backend := range []string{"graph", "asr", "relational"} {
		res, err := eng.Exec(context.Background(), q, proql.Options{Backend: backend, AsOfEpoch: asOf})
		var nr *proql.ErrNotRelational
		if backend == "relational" && errors.As(err, &nr) {
			continue
		}
		if err != nil {
			t.Fatalf("%s: %s: %v", where, backend, err)
		}
		for _, v := range vars {
			if w, g := want.SortedRefs(v), res.SortedRefs(v); fmt.Sprint(w) != fmt.Sprint(g) {
				t.Fatalf("%s: $%s bindings\n interpreter %v\n %s %v", where, v, w, backend, g)
			}
		}
		if backend == "relational" {
			continue // its projection of INCLUDE forms is narrower (diffQuery.relGraph)
		}
		if gs := graphSignature(t, res); gs != ws {
			t.Errorf("%s: projected graph: only on the interpreter:\n%s\n only on %s:\n%s",
				where, lineDiff(ws, gs), backend, lineDiff(gs, ws))
		}
	}
}
