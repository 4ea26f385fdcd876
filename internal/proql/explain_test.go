package proql

import (
	"context"
	"errors"
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

// TestExplainGraphQuery: EXPLAIN names the path backend and why — the
// syntax route for a query with no WHERE (Q4), the
// relational translation's refusal for a multi-path query with a WHERE
// (Q3).
func TestExplainGraphQuery(t *testing.T) {
	e := exampleEngine(t)
	for q, want := range map[string]string{
		"Q4": "backend: path\n",
		"Q3": "backend: path\n",
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

// TestAutoRoutes: auto runs every query on the path executor, one
// query per class the relational translation used to take: a
// key-pinned read live and AS OF, a range WHERE, a whole-relation AS OF
// read, and EVALUATE; ASR rewriting does not change it. EXPLAIN's
// backend line names the executor Eval ran.
func TestAutoRoutes(t *testing.T) {
	e := exampleEngine(t)
	epoch := e.Sys.DB.Epoch()
	keyPinned := `FOR [A $x] WHERE $x.id = 2 INCLUDE PATH [$x] <-+ [] RETURN $x`
	for _, c := range []struct {
		class, query string
		asOf         uint64
	}{
		{"key-pinned", keyPinned, 0},
		{"key-pinned AS OF", keyPinned, epoch},
		{"range", `FOR [A $x] WHERE $x.length >= 6 RETURN $x`, 0},
		{"whole-relation AS OF", paperQueries["Q1"], epoch},
		{"EVALUATE", paperQueries["Q7"], 0},
		{"multipath", paperQueries["Q3"], 0},
	} {
		q := MustParse(c.query)
		opts := Options{AsOfEpoch: c.asOf}
		res, err := e.Eval(context.Background(), q, opts)
		if err != nil {
			t.Fatalf("%s: %v", c.class, err)
		}
		if res.Stats.Backend != "path" {
			t.Errorf("%s: ran on %s, want path", c.class, res.Stats.Backend)
		}
		out, err := e.Explain(q, opts)
		if err != nil {
			t.Fatalf("%s: explain: %v", c.class, err)
		}
		if line, _, _ := strings.Cut(out, "\n"); line != "backend: path" {
			t.Errorf("%s: EXPLAIN says %q, want %q", c.class, line, "backend: path")
		}
	}

	q := MustParse(paperQueries["Q1"])
	e.RewriteRules = func(rules []*ConjRule) []*ConjRule { return rules }
	res, err := e.Eval(context.Background(), q, Options{})
	if err != nil {
		t.Fatalf("ASR rewriting: %v", err)
	}
	if res.Stats.Backend != "path" {
		t.Errorf("ASR rewriting: ran on %s, want path", res.Stats.Backend)
	}
	e.RewriteRules = nil

	// The path executor's older names run it and report its name; an
	// unknown name is still refused.
	for _, name := range []string{"asr", "graph"} {
		res, err := e.Eval(context.Background(), q, Options{Backend: name})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Stats.Backend != "path" {
			t.Errorf("backend %q reported %s, want path", name, res.Stats.Backend)
		}
	}
	var ub *ErrUnknownBackend
	if _, err := e.Eval(context.Background(), q, Options{Backend: "bogus"}); !errors.As(err, &ub) {
		t.Errorf("unknown backend: got %v, want *ErrUnknownBackend", err)
	}
}
