package proql

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/exchange"
	"repro/internal/fixture"
	"repro/internal/model"
	"repro/internal/provgraph"
)

// TestASRBackendMatchesGraphOnPaperQueries cross-checks the
// goal-directed asr backend against the tree-walking interpreter over
// a built provenance graph on every paper query: bindings, projected
// subgraph size, and annotations must agree.
func TestASRBackendMatchesGraphOnPaperQueries(t *testing.T) {
	for name, text := range paperQueries {
		matchesInterpreter(t, exampleEngine(t), name, text)
	}
}

// TestASRBackendMatchesGraphOnLabelStarts: a path whose start is pinned
// only by its first edge's mapping starts from that mapping's
// derivations (EachDerivOf, then EachTarget) — on every mapping of the
// example, the superfluous m4, read from its reconstructed rows, among
// them.
func TestASRBackendMatchesGraphOnLabelStarts(t *testing.T) {
	e := exampleEngine(t)
	for _, m := range e.Sys.Schema.Mappings() {
		text := fmt.Sprintf("FOR [$x] <%s [$y] INCLUDE PATH [$x] <%s [$y] RETURN $x, $y", m.Name, m.Name)
		if n := matchesInterpreter(t, e, m.Name, text); n == 0 {
			t.Errorf("%s: no derivation starts a path", m.Name)
		}
	}
}

// matchesInterpreter runs one query on the interpreter and on asr and
// compares bindings, projected subgraph size and annotations. It
// returns the number of asr bindings.
func matchesInterpreter(t *testing.T, e *Engine, name, text string) int {
	t.Helper()
	q := MustParse(text)
	gr, err := ExecInterpreter(e, context.Background(), q, 0)
	if err != nil {
		t.Fatalf("%s: interpreter: %v", name, err)
	}
	goal, err := e.Exec(context.Background(), q, Options{Backend: "asr"})
	if err != nil {
		t.Fatalf("%s: asr: %v", name, err)
	}
	if goal.Stats.Backend != "asr" {
		t.Fatalf("%s: backend = %q", name, goal.Stats.Backend)
	}
	for _, v := range q.Projection.Return {
		gRefs, sRefs := gr.SortedRefs(v), goal.SortedRefs(v)
		if len(gRefs) != len(sRefs) {
			t.Fatalf("%s: $%s bindings %d (interpreter) vs %d (asr)", name, v, len(gRefs), len(sRefs))
		}
		for i := range gRefs {
			if gRefs[i] != sRefs[i] {
				t.Fatalf("%s: $%s binding %d: %v vs %v", name, v, i, gRefs[i], sRefs[i])
			}
		}
	}
	gg, sg := gr.MustGraph(), goal.MustGraph()
	if gg.NumDerivations() != sg.NumDerivations() {
		t.Errorf("%s: projected derivations %d (interpreter) vs %d (asr)", name, gg.NumDerivations(), sg.NumDerivations())
	}
	if gg.NumTuples() != sg.NumTuples() {
		t.Errorf("%s: projected tuples %d (interpreter) vs %d (asr)", name, gg.NumTuples(), sg.NumTuples())
	}
	if (gr.Annotations == nil) != (goal.Annotations == nil) {
		t.Fatalf("%s: annotation presence differs", name)
	}
	for ref, v := range gr.Annotations {
		sv, ok := goal.Annotations[ref]
		if !ok || !gr.Semiring.Eq(v, sv) {
			t.Errorf("%s: annotation mismatch for %v: %v vs %v", name, ref, v, sv)
		}
	}
	return goal.Len()
}

// TestASRBackendZeroGraphBuilds asserts the asr backend's defining
// property: evaluating the multi-path Q4 and annotation Q5 shapes,
// each twice, never materializes a provenance graph. The asr planner
// reads only the query syntax, so the plan cache stays empty.
func TestASRBackendZeroGraphBuilds(t *testing.T) {
	e := exampleEngine(t)
	opts := Options{Backend: "asr"}
	before := provgraph.Builds()
	for _, name := range []string{"Q4", "Q5", "Q4", "Q5"} {
		res, err := e.Exec(context.Background(), MustParse(paperQueries[name]), opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Stats.Backend != "asr" {
			t.Fatalf("%s: backend = %q", name, res.Stats.Backend)
		}
		if len(res.Bindings) == 0 {
			t.Fatalf("%s: no bindings", name)
		}
	}
	if got := provgraph.Builds() - before; got != 0 {
		t.Fatalf("asr backend materialized %d provenance graphs, want 0", got)
	}
	if st := e.PlanCacheStats(); st != (PlanCacheStats{}) {
		t.Errorf("asr queries touched the plan cache: %+v", st)
	}
}

// TestBackendSelectorRoutesExecAndExplain: Exec and Explain read
// one Options and resolve its backend name alike — a forced asr (and
// its alias graph), auto's AS OF route, and the typed error of an
// unknown name.
func TestBackendSelectorRoutesExecAndExplain(t *testing.T) {
	e := exampleEngine(t)
	for _, name := range []string{"asr", "graph"} {
		opts := Options{Backend: name}
		out, err := e.ExplainString(paperQueries["Q4"], opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{"backend: asr (forced)", "physical plan:", "plan cache:"} {
			if !containsStr(out, want) {
				t.Errorf("%s: explain missing %q:\n%s", name, want, out)
			}
		}
		res, err := e.Exec(context.Background(), MustParse(paperQueries["Q4"]), opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Backend != "asr" {
			t.Errorf("%s: ran on %s, want asr", name, res.Stats.Backend)
		}
	}
	asOf := Options{AsOfEpoch: e.Sys.DB.Epoch()}
	if out, err := e.ExplainString(paperQueries["Q1"], asOf); err != nil {
		t.Fatal(err)
	} else if !containsStr(out, "backend: relational (AS OF)") {
		t.Errorf("an AS OF explain must route as Eval does:\n%s", out)
	}
	if res, err := e.Exec(context.Background(), MustParse(paperQueries["Q1"]), asOf); err != nil {
		t.Fatal(err)
	} else if res.Stats.Backend != "relational" {
		t.Errorf("AS OF: ran on %s, want relational", res.Stats.Backend)
	}
	bogus := Options{Backend: "bogus"}
	var ub *ErrUnknownBackend
	if _, err := e.Exec(context.Background(), MustParse(paperQueries["Q1"]), bogus); !errors.As(err, &ub) {
		t.Errorf("unknown backend must error with ErrUnknownBackend, got %v", err)
	}
	if _, err := e.Explain(MustParse(paperQueries["Q1"]), bogus); !errors.As(err, &ub) {
		t.Errorf("unknown backend must error in Explain with ErrUnknownBackend, got %v", err)
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestSpareViewsBoundWhatTheyKeep: a finished path query's view is kept
// for the next query with the arrays its dense reads filled, but only
// while they stay within spareBytes. Past the bound the view is dropped
// with its arrays, so a point query after a large one does not hold the
// large one's memory.
func TestSpareViewsBoundWhatTheyKeep(t *testing.T) {
	// Every mapping materialized, so a key-pinned read stays sparse.
	e := NewEngine(fixture.MustSystem(fixture.Options{Exchange: exchange.Options{MaterializeAll: true}}))
	whole := MustParse("FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x")
	one, err := e.Exec(context.Background(), MustParse("FOR [O $x] RETURN $x"), Options{})
	if err != nil || one.Len() == 0 {
		t.Fatalf("no O tuple: %v", err)
	}
	key, err := model.DecodeDatums(one.Bindings[0]["x"].Key)
	if err != nil {
		t.Fatal(err)
	}
	point := MustParse(fmt.Sprintf("FOR [O $x] WHERE $x.name = '%s' AND $x.height = %d INCLUDE PATH [$x] <-+ [] RETURN $x", key[0], key[1]))
	run := func(q *Query) {
		t.Helper()
		if _, err := e.Exec(context.Background(), q, Options{Backend: "asr"}); err != nil {
			t.Fatal(err)
		}
	}
	kept := func() (views, bytes int) {
		e.views.mu.Lock()
		defer e.views.mu.Unlock()
		for _, v := range e.views.views {
			bytes += v.held()
		}
		return len(e.views.views), bytes
	}
	run(whole)
	n, full := kept()
	if n != 1 || full == 0 {
		t.Fatalf("after a whole-relation query: %d views kept holding %d bytes, want 1 holding its arrays", n, full)
	}
	defer func(b int) { spareBytes = b }(spareBytes)
	spareBytes = full - 1
	run(whole)
	if n, _ := kept(); n != 0 {
		t.Fatalf("a view holding more than spareBytes was kept (%d views)", n)
	}
	run(point)
	if n, bytes := kept(); n != 1 || bytes >= full {
		t.Fatalf("after a point query: %d views kept holding %d bytes, want 1 holding less than the whole query's %d", n, bytes, full)
	}
}

// TestASRBackendMatchesGraphOnDanglingReferences: a derivation whose
// source and target tuples the snapshot does not store — a provenance
// row written behind update exchange's back — gets handles with no row
// for them, and asr answers as the interpreter does over the built
// graph.
func TestASRBackendMatchesGraphOnDanglingReferences(t *testing.T) {
	e := NewEngine(fixture.MustSystem(fixture.Options{Exchange: exchange.Options{MaterializeAll: true}}))
	pr := e.Sys.Prov[fixture.M1]
	tab := e.Sys.DB.MustTable(pr.TableName)
	var row model.Tuple
	tab.Iterate(func(r model.Tuple) bool {
		row = slices.Clone(r)
		return false
	})
	for _, a := range append(slices.Clone(pr.Sources), pr.Targets...) {
		for _, c := range a.Cols {
			if c < 0 {
				continue // a constant of the atom
			}
			switch d := row[c].(type) {
			case int64:
				row[c] = d + 1_000_000
			case string:
				row[c] = "ghost " + d
			}
		}
	}
	if ok, err := tab.Insert(row); !ok || err != nil {
		t.Fatalf("insert %v: %v, %v", row, ok, err)
	}
	q := fmt.Sprintf("FOR [$x] <%s [$y] INCLUDE PATH [$x] <%s [$y] RETURN $x, $y", fixture.M1, fixture.M1)
	res, err := e.Exec(context.Background(), MustParse(q), Options{Backend: "asr"})
	if err != nil {
		t.Fatal(err)
	}
	dangling := 0
	for _, ref := range res.SortedRefs("x") {
		if _, ok := e.Sys.DB.MustTable(ref.Rel).LookupEncoded(ref.Key); !ok {
			dangling++
		}
	}
	if dangling != 1 {
		t.Fatalf("$x binds %d tuples the store lacks, want 1", dangling)
	}
	matchesInterpreter(t, e, "dangling", q)
}
