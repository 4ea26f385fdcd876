package exchange_test

import (
	"math/rand"
	"testing"

	"repro/internal/exchange"
	"repro/internal/model"
)

// Three-way differential for incremental insertion, mirroring the
// deletion differential: on randomly generated CDSS settings (acyclic
// and cyclic mapping graphs) and random insertion batches, the
// Δ-seeded RunDelta must leave the database and the provenance tables
// identical to (a) a full re-run on the same warm system and (b) a
// from-scratch exchange oracle over all base data inserted so far. Some trials interleave deletions: DeleteLocal
// repairs the persistent journals from its report, so the following
// RunDelta must STAY delta-seeded (no full-run fallback) and still
// converge to the oracle.

func TestDifferentialInsertion(t *testing.T) {
	rng := rand.New(rand.NewSource(20260729))
	for trial := 0; trial < 70; trial++ {
		cyclic := trial%2 == 1
		withDeletes := trial%5 == 4
		s := genDelSetting(rng, cyclic)

		// Split base data: roughly half seeds the initial exchange, the
		// rest arrives in insertion batches.
		initial := make([][]model.Tuple, len(s.facts))
		var later []struct {
			ri  int
			row model.Tuple
		}
		for i, rows := range s.facts {
			for _, row := range rows {
				if rng.Intn(2) == 0 {
					initial[i] = append(initial[i], row)
				} else {
					later = append(later, struct {
						ri  int
						row model.Tuple
					}{i, row})
				}
			}
		}

		sysDelta := s.build(t, initial)
		sysFull := s.build(t, initial)

		// current[i] tracks the base rows present, keyed by encoding
		// (all columns are the key), for the oracle arm.
		current := make([]map[string]model.Tuple, len(s.facts))
		for i, rows := range initial {
			current[i] = map[string]model.Tuple{}
			for _, row := range rows {
				current[i][model.EncodeDatums(row)] = row
			}
		}

		step := 0
		for len(later) > 0 {
			step++
			// Take a batch of 1–3 pending rows.
			n := 1 + rng.Intn(3)
			if n > len(later) {
				n = len(later)
			}
			batch := later[:n]
			later = later[n:]
			for _, ins := range batch {
				current[ins.ri][model.EncodeDatums(ins.row)] = ins.row
				if err := sysDelta.InsertLocal(relName(ins.ri), ins.row.Clone()); err != nil {
					t.Fatal(err)
				}
				if err := sysFull.InsertLocal(relName(ins.ri), ins.row.Clone()); err != nil {
					t.Fatal(err)
				}
			}

			if withDeletes && rng.Intn(3) == 0 {
				// Delete one surviving row from both systems; journal
				// repair must keep the delta state alive, so the next
				// RunDelta stays incremental across the deletion.
				ri := rng.Intn(len(current))
				for enc, row := range current[ri] {
					delete(current[ri], enc)
					if _, err := sysDelta.DeleteLocal(relName(ri), row); err != nil {
						t.Fatal(err)
					}
					if _, err := sysFull.DeleteLocal(relName(ri), row); err != nil {
						t.Fatal(err)
					}
					if !sysDelta.DeltaReady() {
						t.Fatalf("trial %d step %d: delta state lost across deletion (journal repair failed)", trial, step)
					}
					break
				}
			}

			wantFull := !sysDelta.DeltaReady()
			derivsBefore := derivationCount(t, sysDelta)
			report, err := sysDelta.RunDelta()
			if err != nil {
				t.Fatalf("trial %d step %d: RunDelta: %v", trial, step, err)
			}
			if report.Full != wantFull {
				t.Fatalf("trial %d step %d: report.Full=%v, want %v", trial, step, report.Full, wantFull)
			}
			if !report.Full {
				// Report lists must match the observed storage deltas.
				if got := derivationCount(t, sysDelta) - derivsBefore; got != len(report.InsertedDerivations) {
					t.Fatalf("trial %d step %d: InsertedDerivations=%d, storage gained %d derivations",
						trial, step, len(report.InsertedDerivations), got)
				}
			}
			if err := sysFull.Run(); err != nil {
				t.Fatalf("trial %d step %d: full Run: %v", trial, step, err)
			}

			oracleFacts := make([][]model.Tuple, len(current))
			for i := range current {
				for _, row := range current[i] {
					oracleFacts[i] = append(oracleFacts[i], row)
				}
			}
			oracle := s.build(t, oracleFacts)

			sigDelta, sigFull, sigOracle := signature(t, sysDelta), signature(t, sysFull), signature(t, oracle)
			if sigDelta != sigOracle {
				t.Fatalf("trial %d step %d (cyclic=%v): delta != oracle\nmappings: %v\ndelta:\n%s\noracle:\n%s",
					trial, step, cyclic, s.mappings, sigDelta, sigOracle)
			}
			if sigFull != sigOracle {
				t.Fatalf("trial %d step %d (cyclic=%v): full != oracle\nmappings: %v\nfull:\n%s\noracle:\n%s",
					trial, step, cyclic, s.mappings, sigFull, sigOracle)
			}
		}
	}
}

// TestRunDeltaMultiHeadMapping covers the multi-head (GLAV) path: one
// derivation relates two target tuples. Incremental insertion and a
// subsequent deletion must both leave storage identical to a
// from-scratch oracle.
func TestRunDeltaMultiHeadMapping(t *testing.T) {
	build := func(xs ...int64) *exchange.System {
		t.Helper()
		schema := model.NewSchema()
		cols := []model.Column{{Name: "x", Type: model.TypeInt}}
		for _, name := range []string{"S", "T1", "T2"} {
			if err := schema.AddRelation(model.MustRelation(name, cols, "x")); err != nil {
				t.Fatal(err)
			}
		}
		v := model.V
		m := model.NewMultiHeadMapping("mGLAV",
			[]model.Atom{model.NewAtom("T1", v("x")), model.NewAtom("T2", v("x"))},
			[]model.Atom{model.NewAtom("S", v("x"))})
		if err := schema.AddMapping(m); err != nil {
			t.Fatal(err)
		}
		sys, err := exchange.NewSystem(schema, exchange.Options{MaterializeAll: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range xs {
			if err := sys.InsertLocal("S", model.Tuple{x}); err != nil {
				t.Fatal(err)
			}
		}
		if err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		return sys
	}
	sys := build(1, 2)
	if err := sys.InsertLocal("S", model.Tuple{int64(3)}); err != nil {
		t.Fatal(err)
	}
	report, err := sys.RunDelta()
	if err != nil {
		t.Fatal(err)
	}
	if report.Full {
		t.Fatal("unexpected full-run fallback")
	}
	// One new derivation relating two new target tuples.
	if len(report.InsertedDerivations) != 1 {
		t.Fatalf("report = %+v, want 1 derivation", report)
	}
	oracle := build(1, 2, 3)
	if got, want := signature(t, sys), signature(t, oracle); got != want {
		t.Fatalf("multi-head delta != oracle\ndelta:\n%s\noracle:\n%s", got, want)
	}
	// Deleting the base row must take both heads with it.
	rep, err := sys.DeleteLocal("S", []model.Datum{int64(3)})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TuplesDeleted != 3 || rep.DerivationsDeleted != 1 {
		t.Fatalf("deletion report = %+v, want 3 tuples and 1 derivation", rep)
	}
	if got, want := signature(t, sys), signature(t, build(1, 2)); got != want {
		t.Fatalf("post-delete state != oracle\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestRunDeltaNoPendingIsCheapNoOp checks that RunDelta with nothing
// pending does no work and reports nothing.
func TestRunDeltaNoPendingIsCheapNoOp(t *testing.T) {
	sys := buildCycleSetting(t, exchange.Options{})
	report, err := sys.RunDelta()
	if err != nil {
		t.Fatal(err)
	}
	if report.Full {
		t.Fatal("RunDelta on warm system reported a full run")
	}
	if report.Derivations != 0 {
		t.Fatalf("no-pending RunDelta did work: %+v", report)
	}
}
