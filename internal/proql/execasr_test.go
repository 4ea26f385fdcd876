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
	"repro/internal/relstore"
)

// TestASRBackendMatchesGraphOnPaperQueries cross-checks the
// goal-directed path backend against the tree-walking interpreter over
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

// matchesInterpreter runs one query on the interpreter and on path and
// compares bindings, projected subgraph size and annotations. It
// returns the number of path bindings.
func matchesInterpreter(t *testing.T, e *Engine, name, text string) int {
	t.Helper()
	q := MustParse(text)
	gr, err := ExecInterpreter(e, context.Background(), q, 0)
	if err != nil {
		t.Fatalf("%s: interpreter: %v", name, err)
	}
	goal, err := e.Exec(context.Background(), q, Options{Backend: "path"})
	if err != nil {
		t.Fatalf("%s: path: %v", name, err)
	}
	if goal.Stats.Backend != "path" {
		t.Fatalf("%s: backend = %q", name, goal.Stats.Backend)
	}
	for _, v := range q.Projection.Return {
		gRefs, sRefs := gr.SortedRefs(v), goal.SortedRefs(v)
		if len(gRefs) != len(sRefs) {
			t.Fatalf("%s: $%s bindings %d (interpreter) vs %d (path)", name, v, len(gRefs), len(sRefs))
		}
		for i := range gRefs {
			if gRefs[i] != sRefs[i] {
				t.Fatalf("%s: $%s binding %d: %v vs %v", name, v, i, gRefs[i], sRefs[i])
			}
		}
	}
	gg, sg := gr.MustGraph(), goal.MustGraph()
	if gg.NumDerivations() != sg.NumDerivations() {
		t.Errorf("%s: projected derivations %d (interpreter) vs %d (path)", name, gg.NumDerivations(), sg.NumDerivations())
	}
	if gg.NumTuples() != sg.NumTuples() {
		t.Errorf("%s: projected tuples %d (interpreter) vs %d (path)", name, gg.NumTuples(), sg.NumTuples())
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

// TestASRBackendZeroGraphBuilds asserts the path backend's defining
// property: evaluating the multi-path Q4 and annotation Q5 shapes,
// each twice, never materializes a provenance graph. The path planner
// reads only the query syntax, so the plan cache stays empty.
func TestASRBackendZeroGraphBuilds(t *testing.T) {
	e := exampleEngine(t)
	opts := Options{Backend: "path"}
	before := provgraph.Builds()
	for _, name := range []string{"Q4", "Q5", "Q4", "Q5"} {
		res, err := e.Exec(context.Background(), MustParse(paperQueries[name]), opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Stats.Backend != "path" {
			t.Fatalf("%s: backend = %q", name, res.Stats.Backend)
		}
		if len(res.Bindings) == 0 {
			t.Fatalf("%s: no bindings", name)
		}
	}
	if got := provgraph.Builds() - before; got != 0 {
		t.Fatalf("path backend materialized %d provenance graphs, want 0", got)
	}
	if st := e.PlanCacheStats(); st != (PlanCacheStats{}) {
		t.Errorf("path queries touched the plan cache: %+v", st)
	}
}

// TestBackendSelectorRoutesExecAndExplain: Exec and Explain read
// one Options and resolve its backend name alike — a forced path (and
// its older names asr and graph), auto's AS OF route, and the typed
// error of an unknown name.
func TestBackendSelectorRoutesExecAndExplain(t *testing.T) {
	e := exampleEngine(t)
	for _, name := range []string{"path", "asr", "graph"} {
		opts := Options{Backend: name}
		out, err := e.ExplainString(paperQueries["Q4"], opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{"backend: path (forced)", "physical plan:", "plan cache:"} {
			if !containsStr(out, want) {
				t.Errorf("%s: explain missing %q:\n%s", name, want, out)
			}
		}
		res, err := e.Exec(context.Background(), MustParse(paperQueries["Q4"]), opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Backend != "path" {
			t.Errorf("%s: ran on %s, want path", name, res.Stats.Backend)
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

// TestASRBackendMatchesGraphOnDanglingReferences: a derivation whose
// source and target tuples the snapshot does not store — a provenance
// row written behind update exchange's back — gets handles with no row
// for them, and path answers as the interpreter does over the built
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
	res, err := e.Exec(context.Background(), MustParse(q), Options{Backend: "path"})
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
	// A second query resolves C, whose incoming derivations are m1's,
	// so m1's table records the dangling tuples by the query's handles
	// and stays the query's own; the queries after it resolve their own
	// handles.
	matchesInterpreter(t, e, "dangling, whole target", "FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x")
	_, _, tabs := sharedGen(e)
	if tab, ok := tabs[e.Sys.DB.MustTable("C").Ord()]; !ok || !tab.resolved {
		t.Fatal("C was not resolved and shared")
	}
	if tab, ok := tabs[pr.Table]; ok && tab.edged {
		t.Fatalf("%s's table was shared with its dangling edges", fixture.M1)
	}
	matchesInterpreter(t, e, "dangling, whole target again", "FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x")
	matchesInterpreter(t, e, "dangling, again", q)
}

// sharedGen returns the generation of e's shared dense tables: its
// epoch and definition version, and its tables by ordinal.
func sharedGen(e *Engine) (epoch, version uint64, tabs map[int]*denseTable) {
	epoch, version, tabs, _ = SharedDense(e)
	return epoch, version, tabs
}

// TestSharedDenseTablesAsOfOlderEpoch: an AS OF read of an older epoch,
// once the newest epoch's tables are shared, reads its own epoch and
// leaves the shared generation as it was.
func TestSharedDenseTablesAsOfOlderEpoch(t *testing.T) {
	e := NewEngine(fixture.MustSystem(fixture.Options{}))
	e.Sys.DB.SetRetention(relstore.RetainAll)
	old := e.Sys.DB.Epoch()
	if err := e.Sys.InsertLocal("A", model.Tuple{int64(3), "sn3", int64(9)}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Sys.RunDelta(); err != nil {
		t.Fatal(err)
	}
	text := "FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x"
	matchesInterpreter(t, e, "live", text)
	epoch, _, tabs := sharedGen(e)
	if epoch != e.Sys.DB.Epoch() || epoch == old || len(tabs) == 0 {
		t.Fatalf("%d tables shared at epoch %d, want the newest epoch %d's", len(tabs), epoch, e.Sys.DB.Epoch())
	}
	q := MustParse(text)
	got, err := e.Exec(context.Background(), q, Options{Backend: "path", AsOfEpoch: old})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ExecInterpreter(e, context.Background(), q, old)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := fmt.Sprint(got.SortedRefs("x")), fmt.Sprint(want.SortedRefs("x")); g != w {
		t.Fatalf("AS OF %d: path binds %s, the interpreter %s", old, g, w)
	}
	if g, w := got.MustGraph().NumDerivations(), want.MustGraph().NumDerivations(); g != w {
		t.Fatalf("AS OF %d: path projects %d derivations, the interpreter %d", old, g, w)
	}
	next, _, now := sharedGen(e)
	if next != epoch || len(now) != len(tabs) {
		t.Fatalf("after the AS OF read: %d tables shared at epoch %d, want epoch %d's %d", len(now), next, epoch, len(tabs))
	}
	for ord, tab := range tabs {
		if now[ord] != tab {
			t.Fatalf("the AS OF read replaced table %d of the newest epoch", ord)
		}
	}
	if n := matchesInterpreter(t, e, "live again", text); n == got.Len() {
		t.Fatalf("the commit did not change the answer (%d rows): the AS OF read shows nothing", n)
	}
}

// TestSharedDenseTablesFollowDefinitionVersion: a table created at an
// unchanged epoch (no commit hook is set, so the definition change
// commits nothing) changes the definition version, and the next view
// builds its tables again instead of taking the shared ones.
func TestSharedDenseTablesFollowDefinitionVersion(t *testing.T) {
	e := NewEngine(fixture.MustSystem(fixture.Options{}))
	text := "FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x"
	matchesInterpreter(t, e, "before", text)
	epoch, version, tabs := sharedGen(e)
	if len(tabs) == 0 {
		t.Fatal("a whole-relation query shared no table")
	}
	if _, err := e.Sys.DB.CreateTable(&relstore.TableSchema{Name: "probe", Columns: []model.Column{{Name: "k"}}}); err != nil {
		t.Fatal(err)
	}
	if e.Sys.DB.Epoch() != epoch {
		t.Fatalf("creating a table committed epoch %d", e.Sys.DB.Epoch())
	}
	matchesInterpreter(t, e, "after", text)
	next, nextVersion, now := sharedGen(e)
	if next != epoch || nextVersion <= version || len(now) == 0 {
		t.Fatalf("after the definition change: %d tables shared at (epoch %d, version %d), want (%d, > %d)", len(now), next, nextVersion, epoch, version)
	}
	for ord, tab := range now {
		if tabs[ord] == tab {
			t.Fatalf("table %d of definition version %d is still shared at version %d", ord, version, nextVersion)
		}
	}
}
