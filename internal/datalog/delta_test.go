package datalog

import (
	"testing"

	"repro/internal/model"
	"repro/internal/relstore"
)

// dbSignature renders every table's sorted live rows for equality
// comparison across engines/run modes.
func dbSignature(db *relstore.Database) string {
	sig := ""
	for _, name := range db.TableNames() {
		sig += name + ":"
		for _, row := range db.MustTable(name).SortedRows() {
			sig += model.EncodeDatums(row) + ";"
		}
		sig += "\n"
	}
	return sig
}

// TestRunProgramDeltaMatchesFullRun checks the Δ-seeded run mode on
// the recursive transitive-closure program: after a full run, new
// edges fed through RunProgramDelta must (a) leave the database
// identical to a from-scratch fixpoint over all edges, and (b) fire
// the hook exactly once per derivation that involves a new fact —
// never re-enumerating old derivations.
//
// The serial engine is the only one; its subtest keeps the name par=0
// it had when the test also ran a worker-pool arm.
func TestRunProgramDeltaMatchesFullRun(t *testing.T) {
	t.Run("par=0", func(t *testing.T) {
		db, rules := tcProgram(t)
		e := NewEngine(db)
		p, err := Compile(db, rules)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.RunProgram(p); err != nil {
			t.Fatal(err)
		}
		if !p.StateValid() {
			t.Fatal("state invalid after successful full run")
		}
		fullDerivs := e.Derivations

		// Insert new edges 0->1 and 4->5: 0->1 prepends to the chain
		// (paths 0->1..0->5), 4->5 appends (paths 1..4 ->5).
		edge := db.MustTable("edge")
		newRows := []model.Tuple{{int64(0), int64(1)}, {int64(4), int64(5)}}
		for _, row := range newRows {
			if _, err := edge.Insert(row); err != nil {
				t.Fatal(err)
			}
		}
		firings := map[string]int{}
		e.Hook = func(r *Rule, vars []string, slots []model.Datum) {
			firings[firingKey(r, BindingFromSlots(vars, slots))]++
		}
		if err := e.RunProgramDelta(p, map[string][]model.Tuple{"edge": newRows}); err != nil {
			t.Fatal(err)
		}
		if !p.StateValid() {
			t.Fatal("state invalid after successful delta run")
		}
		for key, n := range firings {
			if n != 1 {
				t.Errorf("delta firing %s seen %d times, want 1", key, n)
			}
		}

		// Oracle: fresh database with all five edges, full fixpoint.
		odb, orules := tcProgram(t)
		oedge := odb.MustTable("edge")
		for _, row := range newRows {
			if _, err := oedge.Insert(row); err != nil {
				t.Fatal(err)
			}
		}
		oe := NewEngine(odb)
		if err := oe.Run(orules); err != nil {
			t.Fatal(err)
		}
		if got, want := dbSignature(db), dbSignature(odb); got != want {
			t.Fatalf("delta-extended database differs from oracle\ndelta:\n%s\noracle:\n%s", got, want)
		}
		// Every derivation is enumerated exactly once across the two
		// runs: full + delta must equal the oracle's total.
		if fullDerivs+e.Derivations != oe.Derivations {
			t.Errorf("derivations full(%d) + delta(%d) != oracle(%d)", fullDerivs, e.Derivations, oe.Derivations)
		}
		// And the delta run enumerated strictly fewer than the whole
		// program (it skipped all old-only derivations).
		if e.Derivations >= oe.Derivations {
			t.Errorf("delta run enumerated %d derivations, oracle total is %d — no savings", e.Derivations, oe.Derivations)
		}
	})
}

// TestRunProgramDeltaEmptyIsNoOp checks a delta run with no pending
// rows terminates immediately without touching anything.
func TestRunProgramDeltaEmptyIsNoOp(t *testing.T) {
	db, rules := tcProgram(t)
	e := NewEngine(db)
	p, err := Compile(db, rules)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunProgram(p); err != nil {
		t.Fatal(err)
	}
	before := dbSignature(db)
	if err := e.RunProgramDelta(p, nil); err != nil {
		t.Fatal(err)
	}
	if e.Derivations != 0 || e.Iterations != 0 {
		t.Errorf("empty delta run did work: iterations=%d derivations=%d", e.Iterations, e.Derivations)
	}
	if got := dbSignature(db); got != before {
		t.Error("empty delta run changed the database")
	}
}

// TestRunProgramDeltaStateGuards checks the validity protocol: a delta
// run demands a prior successful full run, and InvalidateState forces
// the next run to be full.
func TestRunProgramDeltaStateGuards(t *testing.T) {
	db, rules := tcProgram(t)
	e := NewEngine(db)
	p, err := Compile(db, rules)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunProgramDelta(p, nil); err == nil {
		t.Fatal("delta run before any full run must fail")
	}
	if err := e.RunProgram(p); err != nil {
		t.Fatal(err)
	}
	p.InvalidateState()
	if err := e.RunProgramDelta(p, nil); err == nil {
		t.Fatal("delta run after InvalidateState must fail")
	}
	if err := e.RunProgram(p); err != nil {
		t.Fatal(err)
	}
	if err := e.RunProgramDelta(p, map[string][]model.Tuple{"nosuch": {{int64(1)}}}); err == nil {
		t.Fatal("delta on unknown predicate must fail")
	}
	if p.StateValid() {
		t.Fatal("failed delta run must invalidate state")
	}
}
