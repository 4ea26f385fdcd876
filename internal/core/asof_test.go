package core_test

import (
	"context"
	"errors"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fixture"
	"repro/internal/model"
	"repro/internal/proql"
	"repro/internal/relstore"
)

const asOfQuery = `FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x`

// renderFull renders a result deterministically: every sorted binding
// ref plus every projected derivation ID, sorted — the byte-identity
// the differential test compares under.
func renderFull(t *testing.T, res *proql.Result) string {
	t.Helper()
	var sb strings.Builder
	for _, ref := range res.SortedRefs("x") {
		sb.WriteString(ref.Rel + "(" + ref.Key + ")\n")
	}
	g, err := res.Graph()
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, 0, len(g.Derivations()))
	for _, dn := range g.Derivations() {
		ids = append(ids, dn.ID)
	}
	sort.Strings(ids)
	sb.WriteString("derivations: " + strings.Join(ids, ",") + "\n")
	return sb.String()
}

var asOfBackends = []string{"auto", "path"}

// runAsOfCommits drives a system through k commit points, recording
// the epoch and the per-backend live rendering at each — the oracle
// the time-travel answers are compared against.
func runAsOfCommits(t *testing.T, sys *core.System) (epochs []uint64, oracle []map[string]string) {
	t.Helper()
	record := func() {
		epochs = append(epochs, sys.Epoch())
		views := map[string]string{}
		for _, b := range asOfBackends {
			q, err := proql.Parse(asOfQuery)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sys.Engine().Exec(context.Background(), q, proql.Options{Backend: b})
			if err != nil {
				t.Fatalf("live %s: %v", b, err)
			}
			views[b] = renderFull(t, res)
		}
		oracle = append(oracle, views)
	}
	record() // the initial exchanged state
	mustRun := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	mustRun(sys.InsertLocal("A", model.Tuple{int64(3), "sn3", int64(9)}))
	mustRun(sys.Run())
	record()
	mustRun(sys.InsertLocal("N", model.Tuple{int64(3), "cn3", false}))
	mustRun(sys.Run())
	record()
	_, err := sys.DeleteLocal("A", []model.Datum{int64(3)})
	mustRun(err)
	record()
	mustRun(sys.InsertLocal("A", model.Tuple{int64(4), "sn4", int64(2)}))
	mustRun(sys.Run())
	record()
	return epochs, oracle
}

// checkAsOf replays every recorded epoch on every backend and demands
// byte-identical output to the oracle recorded when that state was
// live.
func checkAsOf(t *testing.T, sys *core.System, epochs []uint64, oracle []map[string]string) {
	t.Helper()
	for i, e := range epochs {
		for _, b := range asOfBackends {
			q, err := proql.Parse(asOfQuery)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sys.Engine().Exec(context.Background(), q, proql.Options{Backend: b, AsOfEpoch: e})
			if err != nil {
				t.Fatalf("as of %d on %s: %v", e, b, err)
			}
			if res.Stats.AsOf != e {
				t.Errorf("as of %d on %s: Stats.AsOf = %d", e, b, res.Stats.AsOf)
			}
			if got := renderFull(t, res); got != oracle[i][b] {
				t.Errorf("as of %d on %s diverged from live oracle\ngot:\n%s\nwant:\n%s", e, b, got, oracle[i][b])
			}
		}
	}
}

func TestQueryAsOfDifferential(t *testing.T) {
	schema, err := fixture.Schema(fixture.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.Open(schema, core.Options{RetainEpochs: relstore.RetainAll})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.InsertLocal("A",
		model.Tuple{int64(1), "sn1", int64(7)},
		model.Tuple{int64(2), "sn2", int64(5)},
	); err != nil {
		t.Fatal(err)
	}
	if err := sys.InsertLocal("N", model.Tuple{int64(1), "cn1", false}); err != nil {
		t.Fatal(err)
	}
	if err := sys.InsertLocal("C", model.Tuple{int64(2), "cn2"}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}

	epochs, oracle := runAsOfCommits(t, sys)
	checkAsOf(t, sys, epochs, oracle)

	// The three backends agree with each other at every epoch, not
	// just each with its own history.
	for i := range epochs {
		auto := bindingLines(oracle[i]["auto"])
		if got := bindingLines(oracle[i]["path"]); got != auto {
			t.Errorf("epoch %d: path bindings %q != auto %q", epochs[i], got, auto)
		}
	}

	// Epochs outside the window surface the typed error through the
	// query API.
	if _, err := sys.QueryAsOf(asOfQuery, sys.Epoch()+100); err == nil {
		t.Fatal("future epoch answered")
	} else {
		var oor *relstore.ErrEpochOutOfRange
		if !errors.As(err, &oor) {
			t.Fatalf("future epoch error = %v, want ErrEpochOutOfRange", err)
		}
	}

	// And the diff primitive reports the A(3) insert appearing between
	// the first two commit points.
	d, err := sys.Diff(asOfQuery, epochs[0], epochs[1])
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Appeared) != 1 || len(d.Disappeared) != 0 {
		t.Fatalf("diff(%d, %d): %d appeared, %d disappeared, want 1/0",
			epochs[0], epochs[1], len(d.Appeared), len(d.Disappeared))
	}
	if len(d.AppearedDerivations) == 0 {
		t.Error("diff lost the new derivations")
	}
	rev, err := sys.Diff(asOfQuery, epochs[1], epochs[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(rev.Disappeared) != 1 || len(rev.Appeared) != 0 {
		t.Fatalf("reverse diff: %d appeared, %d disappeared, want 0/1", len(rev.Appeared), len(rev.Disappeared))
	}
}

// bindingLines strips the derivation line so cross-backend agreement
// is judged on bindings (derivation ID spelling is backend-internal).
func bindingLines(render string) string {
	lines := strings.Split(render, "\n")
	keep := lines[:0]
	for _, l := range lines {
		if !strings.HasPrefix(l, "derivations: ") {
			keep = append(keep, l)
		}
	}
	return strings.Join(keep, "\n")
}

func TestQueryAsOfSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	schema, err := fixture.Schema(fixture.Options{})
	if err != nil {
		t.Fatal(err)
	}
	open := func() *core.System {
		sys, err := core.OpenDurable(schema, dir, core.Options{RetainEpochs: relstore.RetainAll})
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	sys := open()
	if err := sys.InsertLocal("A",
		model.Tuple{int64(1), "sn1", int64(7)},
		model.Tuple{int64(2), "sn2", int64(5)},
	); err != nil {
		t.Fatal(err)
	}
	if err := sys.InsertLocal("N", model.Tuple{int64(1), "cn1", false}); err != nil {
		t.Fatal(err)
	}
	if err := sys.InsertLocal("C", model.Tuple{int64(2), "cn2"}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	epochs, oracle := runAsOfCommits(t, sys)
	// Checkpoint mid-history: the older epochs must travel inside the
	// checkpoint while the tail replays from the log.
	if err := sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.DeleteLocal("A", []model.Datum{int64(4)}); err != nil {
		t.Fatal(err)
	}
	epochs = append(epochs, sys.Epoch())
	q, err := proql.Parse(asOfQuery)
	if err != nil {
		t.Fatal(err)
	}
	views := map[string]string{}
	for _, b := range asOfBackends {
		res, err := sys.Engine().Exec(context.Background(), q, proql.Options{Backend: b})
		if err != nil {
			t.Fatal(err)
		}
		views[b] = renderFull(t, res)
	}
	oracle = append(oracle, views)

	checkAsOf(t, sys, epochs, oracle)
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	re := open()
	defer re.Close()
	checkAsOf(t, re, epochs, oracle)
}
