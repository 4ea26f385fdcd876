package proql

import (
	"context"
	"strings"
	"testing"
)

// TestExplainRelationalQuery pins Q1's relational translation. Only the
// rule through the virtual provenance view P_m4 keeps a hash join (a
// view has no key to probe); the m5 rule scans P_m5 and semi-joins the
// local rows, whose columns it does not read.
func TestExplainRelationalQuery(t *testing.T) {
	e := exampleEngine(t)
	opts := Options{Backend: "relational"} // the translation is what is checked
	out, err := e.ExplainString(paperQueries["Q1"], opts)
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

// TestExplainGraphQuery: EXPLAIN names the asr backend and why — the
// syntax route for a query with no WHERE (Q4), the
// relational translation's refusal for a multi-path query with a WHERE
// (Q3).
func TestExplainGraphQuery(t *testing.T) {
	e := exampleEngine(t)
	for q, want := range map[string]string{
		"Q4": "backend: asr (no WHERE)",
		"Q3": "backend: asr (multiple FOR path expressions)",
	} {
		out, err := e.ExplainString(paperQueries[q], Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out, want) {
			t.Errorf("%s: explain output:\n%s", q, out)
		}
	}
}

func TestExplainParseError(t *testing.T) {
	e := exampleEngine(t)
	if _, err := e.ExplainString("FOR nonsense", Options{}); err == nil {
		t.Error("bad query should error")
	}
}

func TestExplainShowsVirtualProvenanceView(t *testing.T) {
	// m4 is superfluous: its provenance atom must appear as a
	// projection over A, not a table scan.
	e := exampleEngine(t)
	opts := Options{Backend: "relational"} // the translation is what is checked
	out, err := e.ExplainString(paperQueries["Q1"], opts)
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

// TestAutoRoutes pins auto's syntax-only routing, one query per class:
// a query with no WHERE (whole-relation INCLUDE, multi-path, EVALUATE)
// runs on asr; a key-pinned or range WHERE runs on the relational
// translation; a WHERE query the translation does not cover falls back
// to asr. EXPLAIN's backend line names the backend Eval ran, and why.
func TestAutoRoutes(t *testing.T) {
	e := exampleEngine(t)
	for _, c := range []struct{ class, query, want, reason string }{
		{"whole-relation INCLUDE", paperQueries["Q1"], "asr", "no WHERE"},
		{"multipath", paperQueries["Q4"], "asr", "no WHERE"},
		{"key-pinned", `FOR [A $x] WHERE $x.id = 2 INCLUDE PATH [$x] <-+ [] RETURN $x`, "relational", "WHERE"},
		{"range", `FOR [A $x] WHERE $x.length >= 6 RETURN $x`, "relational", "WHERE"},
		{"EVALUATE", paperQueries["Q7"], "asr", "no WHERE"},
		{"uncovered, falls back", paperQueries["Q3"], "asr", "multiple FOR path expressions"},
	} {
		q := MustParse(c.query)
		res, err := e.Eval(context.Background(), q, Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.class, err)
		}
		if res.Stats.Backend != c.want {
			t.Errorf("%s: ran on %s, want %s", c.class, res.Stats.Backend, c.want)
		}
		out, err := e.Explain(q, Options{})
		if err != nil {
			t.Fatalf("%s: explain: %v", c.class, err)
		}
		line, _, _ := strings.Cut(out, "\n")
		if want := "backend: " + res.Stats.Backend + " (" + c.reason + ")"; line != want {
			t.Errorf("%s: EXPLAIN says %q, want %q", c.class, line, want)
		}
	}

	// A whole-relation read stays on the translation AS OF an epoch
	// and while ASR rewriting is on.
	q := MustParse(paperQueries["Q1"])
	res, err := e.Eval(context.Background(), q, Options{AsOfEpoch: e.Sys.DB.Epoch()})
	if err != nil {
		t.Fatalf("AS OF: %v", err)
	}
	if res.Stats.Backend != "relational" {
		t.Errorf("AS OF: ran on %s, want relational", res.Stats.Backend)
	}
	e.RewriteRules = func(rules []*ConjRule) []*ConjRule { return rules }
	if res, err = e.Eval(context.Background(), q, Options{}); err != nil {
		t.Fatalf("ASR rewriting: %v", err)
	}
	if res.Stats.Backend != "relational" {
		t.Errorf("ASR rewriting: ran on %s, want relational", res.Stats.Backend)
	}
	out, err := e.Explain(q, Options{})
	if err != nil {
		t.Fatalf("ASR rewriting: explain: %v", err)
	}
	if line, _, _ := strings.Cut(out, "\n"); line != "backend: relational (ASR rewriting)" {
		t.Errorf("ASR rewriting: EXPLAIN says %q", line)
	}
}
