package proql

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/fixture"
	"repro/internal/model"
	"repro/internal/semiring"
)

func TestExecDirectStepQuery(t *testing.T) {
	// One-step derivations of O tuples from A tuples: both m4 (direct)
	// and m5 (A joins C) qualify, so all four O tuples bind.
	e := exampleEngine(t)
	opts := Options{Backend: "relational"} // the translation is what is checked
	res, err := execOn(e, `FOR [O $x] <- [A $y] INCLUDE PATH [$x] <- [$y] RETURN $x`, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Backend != "relational" {
		t.Errorf("backend = %s", res.Stats.Backend)
	}
	if got := len(res.SortedRefs("x")); got != 4 {
		t.Errorf("bindings = %d, want 4", got)
	}
	// Each rule is a one-step join: no rule may contain two P atoms.
	comp, err := CompileUnfold(e.Sys, MustParse(`FOR [O $x] <- [A $y] RETURN $x`))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range comp.Rules {
		provs := 0
		for _, a := range r.Body {
			if strings.HasPrefix(a.Rel, "P_") {
				provs++
			}
		}
		if provs != 1 {
			t.Errorf("one-step rule has %d provenance atoms: %v", provs, r.Body)
		}
	}
}

func TestExecWhereInCondition(t *testing.T) {
	e := exampleEngine(t)
	res, err := e.ExecString(`FOR [O $x] WHERE $x IN O RETURN $x`)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.SortedRefs("x")); got != 4 {
		t.Errorf("IN O should keep everything: %d", got)
	}
	res, err = e.ExecString(`FOR [O $x] WHERE $x IN C RETURN $x`)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.SortedRefs("x")); got != 0 {
		t.Errorf("IN C over O tuples should be empty: %d", got)
	}
}

func TestExecWhereStringEquality(t *testing.T) {
	e := exampleEngine(t)
	res, err := e.ExecString(`FOR [O $x] WHERE $x.name = 'cn2' INCLUDE PATH [$x] <-+ [] RETURN $x`)
	if err != nil {
		t.Fatal(err)
	}
	refs := res.SortedRefs("x")
	if len(refs) != 1 || refs[0] != refO("cn2", 5) {
		t.Errorf("bindings = %v", refs)
	}
}

func TestExecGraphBackendReturnUnboundVar(t *testing.T) {
	e := exampleEngine(t)
	// $z is never bound: Q4-shaped query with a bad RETURN.
	_, err := e.ExecString(`FOR [O $x] <-+ [$y], [C $w] <-+ [$y] RETURN $z`)
	if err == nil {
		t.Fatal("unbound RETURN variable should error")
	}
}

func TestExecGraphBackendReturnDerivationVar(t *testing.T) {
	e := exampleEngine(t)
	_, err := e.ExecString(`FOR [$x] <$p [] RETURN $p`)
	if err == nil {
		t.Fatal("returning a derivation variable should error")
	}
}

func TestExecExistentialPathCondition(t *testing.T) {
	e := exampleEngine(t)
	// O tuples with a one-step derivation from C: only m5 outputs
	// (cn1, cn2). The path condition forces the asr backend.
	res, err := e.ExecString(`FOR [O $x] WHERE [$x] <- [C] RETURN $x`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Backend != "asr" {
		t.Fatalf("backend = %s, want asr", res.Stats.Backend)
	}
	refs := res.SortedRefs("x")
	if len(refs) != 2 {
		t.Fatalf("bindings = %v", refs)
	}
	for _, ref := range refs {
		if ref != refO("cn1", 7) && ref != refO("cn2", 5) {
			t.Errorf("unexpected binding %v", ref)
		}
	}
}

func TestExecPosBoolAndPolynomial(t *testing.T) {
	e := exampleEngine(t)
	res, err := e.ExecString(`EVALUATE POLYNOMIAL OF {
		FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x }`)
	if err != nil {
		t.Fatal(err)
	}
	// O(cn1,7): m5(A(1), m1(A(1), N(1,cn1,false))) → A² · N.
	p := res.Annotations[refO("cn1", 7)].(semiring.Poly)
	if p.Coeff(semiring.Mono{refA(1).String(): 2, refN1cn1(): 1}) != 1 {
		t.Errorf("polynomial = %s", p.String())
	}
	// Universality: evaluating the stored polynomial under the
	// derivability assignment matches the DERIVABILITY query.
	d, err := e.ExecString(`EVALUATE DERIVABILITY OF {
		FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x }`)
	if err != nil {
		t.Fatal(err)
	}
	for ref, pv := range res.Annotations {
		assign := map[string]semiring.Value{}
		for _, leafRef := range []string{refA(1).String(), refA(2).String(), refN1cn1(), refC(2, "cn2").String()} {
			assign[leafRef] = true
		}
		got := semiring.EvalPoly(pv.(semiring.Poly), semiring.Derivability{}, assign)
		if got != d.Annotations[ref] {
			t.Errorf("polynomial evaluation for %v = %v, derivability query says %v", ref, got, d.Annotations[ref])
		}
	}
}

func refN1cn1() string {
	return model.RefFromKey("N", []model.Datum{int64(1), "cn1", false}).String()
}

func TestStatsPopulated(t *testing.T) {
	e := exampleEngine(t)
	opts := Options{Backend: "relational"} // the translation is what is checked
	res, err := execOn(e, paperQueries["Q1"], opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.UnfoldedRules == 0 || res.Stats.EvalTime < 0 {
		t.Errorf("stats = %+v", res.Stats)
	}
}

func TestParallelPlanErrorPropagates(t *testing.T) {
	// Dropping a provenance table after compilation makes one rule's
	// plan fail at run time; the error must surface from the parallel
	// evaluation.
	e := exampleEngine(t)
	e.Sys.DB.DropTable("P_m5")
	if _, err := e.ExecString(paperQueries["Q1"]); err == nil {
		t.Fatal("missing table should propagate an error")
	}
}

// TestPathQueryPinsOnlyWhileRunning: a path query pins its snapshot
// only while it runs — it leaves DB.Pins() where it found it — and the
// next query reads the epoch a commit published, with no hook called
// in between; Graph builds a private graph on every call.
func TestPathQueryPinsOnlyWhileRunning(t *testing.T) {
	sys := fixture.MustSystem(fixture.Options{})
	e := NewEngine(sys)
	pins := sys.DB.Pins()
	q := MustParse(paperQueries["Q4"])
	for _, backend := range []string{"graph", "asr"} {
		res, err := e.Exec(context.Background(), q, Options{Backend: backend})
		if err != nil {
			t.Fatal(err)
		}
		if got := sys.DB.Pins(); got != pins {
			t.Fatalf("%s: %d pins after the query, want %d as before it", backend, got, pins)
		}
		if res.Stats.Epoch != sys.DB.Epoch() {
			t.Fatalf("%s: read epoch %d, want the newest %d", backend, res.Stats.Epoch, sys.DB.Epoch())
		}
	}
	all := MustParse(`FOR [O $x] RETURN $x`)
	before, err := e.Exec(context.Background(), all, Options{Backend: "asr"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.DeleteLocal("A", []model.Datum{int64(2)}); err != nil {
		t.Fatal(err)
	}
	after, err := e.Exec(context.Background(), all, Options{Backend: "asr"})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ExecInterpreter(e, context.Background(), all, 0)
	if err != nil {
		t.Fatal(err)
	}
	if after.Stats.Epoch != sys.DB.Epoch() || after.Stats.Epoch == before.Stats.Epoch {
		t.Fatalf("after the delete: read epoch %d, want the newest %d (before: %d)", after.Stats.Epoch, sys.DB.Epoch(), before.Stats.Epoch)
	}
	if got, w := fmt.Sprint(after.SortedRefs("x")), fmt.Sprint(want.SortedRefs("x")); got != w || after.Len() >= before.Len() {
		t.Fatalf("after the delete: %s (%d rows, %d before), interpreter %s", got, after.Len(), before.Len(), w)
	}
	if got := sys.DB.Pins(); got != pins {
		t.Fatalf("%d pins after the queries, want %d", got, pins)
	}
	g1, err := e.Graph()
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := e.Graph()
	if g1 == g2 || g1.NumTuples() != g2.NumTuples() || g1.NumDerivations() != g2.NumDerivations() {
		t.Error("Graph should build an equal, private graph on every call")
	}
}
