package proql

import (
	"strings"
	"testing"
)

// TestExplainRelationalQuery pins Q1's relational translation. Only the
// rule through the virtual provenance view P_m4 keeps a hash join (a
// view has no key to probe); the m5 rule scans P_m5 and semi-joins the
// local rows, whose columns it does not read.
func TestExplainRelationalQuery(t *testing.T) {
	e := exampleEngine(t)
	out, err := e.ExplainString(paperQueries["Q1"])
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"backend: relational",
		"anchor: O ($x)",
		"matched mappings: m1, m2, m4, m5",
		"unfolded rules: 3",
		"HashJoin",
		"Scan(P_m5)",
		"Scan(A_l)",
		"SemiJoin(C_l via pk cols=[0 1] keys=[$0, $1])",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("explain output missing %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "HashJoin("); n != 1 {
		t.Errorf("%d hash joins, want 1 (the view's):\n%s", n, out)
	}
}

func TestExplainGraphQuery(t *testing.T) {
	e := exampleEngine(t)
	out, err := e.ExplainString(paperQueries["Q4"])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "backend: asr (multiple FOR path expressions)") {
		t.Errorf("explain output:\n%s", out)
	}
}

func TestExplainParseError(t *testing.T) {
	e := exampleEngine(t)
	if _, err := e.ExplainString("FOR nonsense"); err == nil {
		t.Error("bad query should error")
	}
}

func TestExplainShowsVirtualProvenanceView(t *testing.T) {
	// m4 is superfluous: its provenance atom must appear as a
	// projection over A, not a table scan.
	e := exampleEngine(t)
	out, err := e.ExplainString(paperQueries["Q1"])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "P_m4") {
		t.Fatalf("m4 rule missing:\n%s", out)
	}
	if strings.Contains(out, "Scan(P_m4)") {
		t.Errorf("P_m4 is virtual and must not be a table scan:\n%s", out)
	}
}
