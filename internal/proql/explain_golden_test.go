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

// TestExplainConstantFreePlansAreProbePipelines pins the plans of
// queries that carry no constant, the whole-target query and its TRUST
// variant: each rule scans its first provenance relation and reaches
// every other atom by a primary-key probe — no hash join, one scan per
// rule — and the atoms that bind nothing the query reads (every P_mA
// after the first, every B_l) are semi-joins. The backend is pinned:
// auto answers the whole-target query on path.
func TestExplainConstantFreePlansAreProbePipelines(t *testing.T) {
	set := chainSetting(t)
	for name, query := range map[string]string{
		"explain_target.golden": set.TargetQuery(),
		"explain_trust.golden":  set.TargetAnnotationQuery(),
	} {
		eng := proql.NewEngine(set.Sys)
		got, err := eng.ExplainString(query, proql.Options{Backend: "relational"})
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, name, query, got)
		rules := strings.Count(got, "\n-- rule ")
		if n := strings.Count(got, "HashJoin("); n != 0 {
			t.Errorf("%s: %d hash joins", name, n)
		}
		if n := strings.Count(got, "Scan(P_mA1)"); n != rules || strings.Count(got, "Scan(") != rules {
			t.Errorf("%s: want one Scan(P_mA1) per rule and no other scan:\n%s", name, got)
		}
		if n := strings.Count(got, "SemiJoin(B1_l via pk"); n != rules {
			t.Errorf("%s: B1_l semi-joined in %d of %d rules", name, n, rules)
		}
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

// TestExplainPointQueryIsGoalDirected pins the relational translation
// of the paper's core question about one tuple: the key selection is
// pushed into both
// unfolded rules, so every atom is reached by a key lookup or a key
// probe and nothing is scanned; the lookup of the anchor's local row
// binds every column the query reads, so every probe after it is a
// semi-join and no row is copied.
func TestExplainPointQueryIsGoalDirected(t *testing.T) {
	set := chainSetting(t)
	out, err := proql.NewEngine(set.Sys).ExplainString(
		`FOR [A0 $x] WHERE $x.k = 80000003 INCLUDE PATH [$x] <-+ [] RETURN $x`, proql.Options{Backend: "relational"})
	if err != nil {
		t.Fatal(err)
	}
	for _, banned := range []string{"Scan(", "HashJoin(", "Filter(", "IndexJoin(", "Project("} {
		if strings.Contains(out, banned) {
			t.Errorf("point query plan contains %s:\n%s", banned, out)
		}
	}
	for _, want := range []string{
		"unfolded rules: 2",
		"PKLookup(A8_l)",
		"PKLookup(A9_l)",
		"SemiJoin(P_mA1 via pk cols=[0 1] keys=[80000003, $1])",
		"SemiJoin(B1_l via pk cols=[0] keys=[$1])",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("point query plan missing %q:\n%s", want, out)
		}
	}
}
