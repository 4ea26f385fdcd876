package exchange_test

import (
	"math/rand"
	"testing"

	"repro/internal/model"
)

// Three-way differential for *interleaved* insert/delete workloads —
// the CDSS steady state the paper's update exchange targets. On
// randomly generated settings (acyclic and cyclic mapping graphs) the
// delta arm alternates DeleteLocal (journal repair) with
// InsertLocal+RunDelta and must never fall back to a full fixpoint:
// every run after the first reports Full=false, the persistent
// journals keep mirroring the tables, and after every step the
// database and provenance tables equal (a) a warm system doing full
// re-runs and (b) a from-scratch exchange oracle over the surviving
// base data.
func TestDifferentialInterleavedChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(20260728))
	for trial := 0; trial < 60; trial++ {
		cyclic := trial%2 == 1
		s := genDelSetting(rng, cyclic)

		// Split the base data: half seeds the initial exchange, the
		// rest arrives over the churn steps.
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
		current := make([]map[string]model.Tuple, len(s.facts))
		for i, rows := range initial {
			current[i] = map[string]model.Tuple{}
			for _, row := range rows {
				current[i][model.EncodeDatums(row)] = row
			}
		}

		for step := 0; step < 8; step++ {
			// Delete up to two surviving base rows. With no pending
			// inserts buffered the repaired journals must mirror the
			// tables exactly after each deletion.
			nDel := rng.Intn(3)
			for d := 0; d < nDel; d++ {
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
						t.Fatalf("trial %d step %d: deletion broke the delta chain (journal repair failed)", trial, step)
					}
					if err := sysDelta.JournalsMirrorTables(); err != nil {
						t.Fatalf("trial %d step %d: journals diverged from tables after deletion: %v", trial, step, err)
					}
					break
				}
			}

			// Insert up to two of the pending rows.
			nIns := rng.Intn(3)
			if nIns > len(later) {
				nIns = len(later)
			}
			for _, ins := range later[:nIns] {
				current[ins.ri][model.EncodeDatums(ins.row)] = ins.row
				if err := sysDelta.InsertLocal(relName(ins.ri), ins.row.Clone()); err != nil {
					t.Fatal(err)
				}
				if err := sysFull.InsertLocal(relName(ins.ri), ins.row.Clone()); err != nil {
					t.Fatal(err)
				}
			}
			later = later[nIns:]

			// Occasionally delete a row WHILE inserts are pending, to
			// exercise the pending-buffer purge (the deleted row may be
			// the one just buffered).
			if nIns > 0 && rng.Intn(4) == 0 {
				ri := rng.Intn(len(current))
				for enc, row := range current[ri] {
					delete(current[ri], enc)
					if _, err := sysDelta.DeleteLocal(relName(ri), row); err != nil {
						t.Fatal(err)
					}
					if _, err := sysFull.DeleteLocal(relName(ri), row); err != nil {
						t.Fatal(err)
					}
					break
				}
			}

			// Propagate. The delta arm must never pay a full fixpoint.
			report, err := sysDelta.RunDelta()
			if err != nil {
				t.Fatalf("trial %d step %d: RunDelta: %v", trial, step, err)
			}
			if report.Full {
				t.Fatalf("trial %d step %d: delta arm fell back to a full fixpoint", trial, step)
			}
			if err := sysDelta.JournalsMirrorTables(); err != nil {
				t.Fatalf("trial %d step %d: journals diverged from tables after delta run: %v", trial, step, err)
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
