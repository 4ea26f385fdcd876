package datalog

import (
	"testing"

	"repro/internal/model"
)

// TestWarmAttachMatchesFullRun is the recovery-path equivalence check:
// a program warm-attached to tables that already hold a fixpoint must
// behave exactly like the program that computed the fixpoint — valid
// state, journals mirroring tables, and subsequent delta runs landing
// on the same database as a never-restarted engine.
//
// The serial engine is the only one; its subtest keeps the name par=0
// it had when the test also ran a worker-pool arm.
func TestWarmAttachMatchesFullRun(t *testing.T) {
	t.Run("par=0", func(t *testing.T) {
		// Oracle: one engine runs full, then extends by delta.
		odb, orules := tcProgram(t)
		oe := NewEngine(odb)
		op, err := Compile(odb, orules)
		if err != nil {
			t.Fatal(err)
		}
		if err := oe.RunProgram(op); err != nil {
			t.Fatal(err)
		}

		// Subject: compute the same fixpoint, then simulate a restart
		// by compiling a fresh program over the populated tables and
		// attaching warm instead of re-running.
		db, rules := tcProgram(t)
		e := NewEngine(db)
		p0, err := Compile(db, rules)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.RunProgram(p0); err != nil {
			t.Fatal(err)
		}
		p, err := Compile(db, rules)
		if err != nil {
			t.Fatal(err)
		}
		if p.StateValid() {
			t.Fatal("fresh program claims valid state")
		}
		p.WarmAttach(nil)
		if !p.StateValid() {
			t.Fatal("state invalid after WarmAttach")
		}
		if err := p.JournalMirrorsTables(); err != nil {
			t.Fatalf("warm-attached journals do not mirror tables: %v", err)
		}

		// Both sides now take the same delta.
		newRows := []model.Tuple{{int64(0), int64(1)}, {int64(4), int64(5)}}
		for _, row := range newRows {
			if _, err := db.MustTable("edge").Insert(row); err != nil {
				t.Fatal(err)
			}
			if _, err := odb.MustTable("edge").Insert(row); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.RunProgramDelta(p, map[string][]model.Tuple{"edge": newRows}); err != nil {
			t.Fatal(err)
		}
		if err := oe.RunProgramDelta(op, map[string][]model.Tuple{"edge": newRows}); err != nil {
			t.Fatal(err)
		}
		if e.Derivations != oe.Derivations {
			t.Errorf("warm-attached delta enumerated %d derivations, never-restarted engine %d", e.Derivations, oe.Derivations)
		}
		if got, want := dbSignature(db), dbSignature(odb); got != want {
			t.Fatalf("warm-attached database differs from oracle\nwarm:\n%s\noracle:\n%s", got, want)
		}
		if err := p.JournalMirrorsTables(); err != nil {
			t.Fatalf("journals diverged after delta run: %v", err)
		}
	})
}

// TestWarmAttachSupportsDeletionRepair checks that ApplyDeletions works
// straight off a warm attach — the position maps seeded by WarmAttach
// must be usable (and kept hot) without an intervening run.
func TestWarmAttachSupportsDeletionRepair(t *testing.T) {
	db, rules := tcProgram(t)
	e := NewEngine(db)
	p0, err := Compile(db, rules)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunProgram(p0); err != nil {
		t.Fatal(err)
	}
	p, err := Compile(db, rules)
	if err != nil {
		t.Fatal(err)
	}
	p.WarmAttach(nil)

	path := db.MustTable("path")
	key := []model.Datum{int64(1), int64(2)}
	if _, err := path.Delete(key); err != nil {
		t.Fatal(err)
	}
	enc := model.EncodeDatums(key)
	if err := p.ApplyDeletions(map[string][]string{"path": {enc}}); err != nil {
		t.Fatal(err)
	}
	if !p.StateValid() {
		t.Fatal("state invalid after deletion repair on warm-attached program")
	}
	if err := p.JournalMirrorsTables(); err != nil {
		t.Fatalf("journals do not mirror tables after repair: %v", err)
	}
	if got, want := p.JournalLen("path"), path.Len(); got != want {
		t.Fatalf("path journal holds %d rows, table %d", got, want)
	}
}
