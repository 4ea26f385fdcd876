package proql_test

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/proql"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite the EXPLAIN golden files")

// chainSetting is the served point-read instance in miniature: the
// 10-peer chain with two upstream data peers. Plans depend on the
// schema, the mappings and which peers hold data — not on row counts.
func chainSetting(t testing.TB) *workload.Setting {
	t.Helper()
	set, err := workload.Build(workload.Config{
		Topology:  workload.Chain,
		Profile:   workload.ProfileLinear,
		NumPeers:  10,
		DataPeers: workload.UpstreamDataPeers(10, 2),
		BaseSize:  20,
		Seed:      7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// TestExplainUnrestrictedPlansUnchanged pins the plans of queries that
// carry no constant: the whole-target query and its TRUST variant must
// explain byte-for-byte as they did before selection pushdown and index
// joins existed (the golden files were recorded at that commit) — hash
// joins over scans in body order.
func TestExplainUnrestrictedPlansUnchanged(t *testing.T) {
	set := chainSetting(t)
	for name, query := range map[string]string{
		"explain_target.golden": set.TargetQuery(),
		"explain_trust.golden":  set.TargetAnnotationQuery(),
	} {
		got, err := proql.NewEngine(set.Sys).ExplainString(query)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, name, query, got)
	}
}

// checkGolden compares an EXPLAIN with its golden file under testdata
// (or rewrites the file under -update).
func checkGolden(t *testing.T, name, query, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s: EXPLAIN of %q changed:\n%s", name, query, got)
	}
}

// TestExplainPointQueryIsGoalDirected pins the shape of the paper's
// core question about one tuple: the key selection is pushed into both
// unfolded rules, so every atom is reached by a key lookup or an index
// join and nothing is scanned.
func TestExplainPointQueryIsGoalDirected(t *testing.T) {
	set := chainSetting(t)
	out, err := proql.NewEngine(set.Sys).ExplainString(
		`FOR [A0 $x] WHERE $x.k = 80000003 INCLUDE PATH [$x] <-+ [] RETURN $x`)
	if err != nil {
		t.Fatal(err)
	}
	for _, banned := range []string{"Scan(", "HashJoin(", "Filter("} {
		if strings.Contains(out, banned) {
			t.Errorf("point query plan contains %s:\n%s", banned, out)
		}
	}
	for _, want := range []string{
		"unfolded rules: 2",
		"PKLookup(A8_l)",
		"PKLookup(A9_l)",
		"IndexJoin(P_mA1 via pk cols=[0 1] keys=[80000003, $1])",
		"IndexJoin(B1_l via pk cols=[0] keys=[$1])",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("point query plan missing %q:\n%s", want, out)
		}
	}
}
