package exchange_test

import (
	"fmt"
	"testing"

	"repro/internal/exchange"
	"repro/internal/model"
)

// FuzzDeleteLocal drives random deletion sequences through a cyclic
// setting in which P and Q copy each other (a mutual-support cycle per
// key) and R feeds P external support:
//
//	mRP: P(x) :- R(x)    mPQ: Q(x) :- P(x)    mQP: P(x) :- Q(x)
//
// For every key x the pair {P(x), Q(x)} must exist exactly as long as
// any external support (a local contribution P_l(x), Q_l(x), or the
// base tuple R_l(x)) survives — when the last one goes, the whole
// cycle must be deleted together, which is the case support counting
// alone (without the localized derivability fixpoint) gets wrong.
// Each step also cross-checks the report's counters against observed
// storage deltas.
func FuzzDeleteLocal(f *testing.F) {
	// Seeds: drain a cycle's external support in different orders, at
	// both provenance layouts (byte 0 is the mode byte, see
	// fuzzOptions).
	f.Add([]byte{0, 0x00, 0x11, 0x21})       // delete R(0), P_l(1), Q_l(1)
	f.Add([]byte{1, 0x01, 0x11, 0x21})       // same key drained in order R,P,Q
	f.Add([]byte{0, 0x21, 0x11, 0x01})       // reverse order
	f.Add([]byte{1, 0x00, 0x00, 0x10, 0x20}) // repeated delete of a gone key
	f.Add([]byte{0, 0x02, 0x12, 0x22, 0x01})
	f.Add([]byte{2, 0x01, 0x11, 0x21})
	f.Add([]byte{7, 0x02, 0x12, 0x22, 0x01}) // materialized provenance

	const domain = 3
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 || len(ops) > 24 {
			t.Skip()
		}
		sys := buildCycleSetting(t, fuzzOptions(ops[0]))
		// present[x] tracks which external supports survive.
		type support struct{ r, p, q bool }
		present := map[int64]*support{}
		for x := int64(0); x < domain; x++ {
			present[x] = &support{r: true, p: x == 1, q: x == 1 || x == 2}
		}
		for _, op := range ops[1:] {
			rel := []string{"R", "P", "Q"}[int(op>>4)%3]
			x := int64(op&0x0f) % domain
			key := []model.Datum{x}

			tuplesBefore := publicRowCount(sys)
			derivsBefore := derivationCount(t, sys)

			report, err := sys.DeleteLocal(rel, key)
			if err != nil {
				t.Fatal(err)
			}

			// Report counters must equal the observed storage deltas.
			if got := tuplesBefore - publicRowCount(sys); got != report.TuplesDeleted {
				t.Fatalf("TuplesDeleted=%d, storage lost %d rows (op %s[%d])",
					report.TuplesDeleted, got, rel, x)
			}
			if got := derivsBefore - derivationCount(t, sys); got != report.DerivationsDeleted {
				t.Fatalf("DerivationsDeleted=%d, storage lost %d derivations (op %s[%d])",
					report.DerivationsDeleted, got, rel, x)
			}
			if report.TuplesDeleted != len(report.DeletedTuples) ||
				report.DerivationsDeleted != len(report.DeletedDerivations) {
				t.Fatalf("report lists inconsistent: %+v", report)
			}

			// Track the independent support model.
			sup := present[x]
			switch rel {
			case "R":
				sup.r = false
			case "P":
				sup.p = false
			case "Q":
				sup.q = false
			}
			// The whole cycle lives or dies together.
			for y := int64(0); y < domain; y++ {
				wantAlive := present[y].r || present[y].p || present[y].q
				_, pAlive := sys.DB.MustTable("P").LookupKey([]model.Datum{y})
				_, qAlive := sys.DB.MustTable("Q").LookupKey([]model.Datum{y})
				if pAlive != wantAlive || qAlive != wantAlive {
					t.Fatalf("key %d: want alive=%v, got P=%v Q=%v (cycle not deleted together)",
						y, wantAlive, pAlive, qAlive)
				}
				_, rAlive := sys.DB.MustTable("R").LookupKey([]model.Datum{y})
				if rAlive != present[y].r {
					t.Fatalf("key %d: R alive=%v, want %v", y, rAlive, present[y].r)
				}
			}
		}
	})
}

// FuzzInsertDelete drives interleaved InsertLocal+RunDelta /
// DeleteLocal sequences through the same cyclic setting, checking
// after every operation that (a) the report counters match the
// observed storage deltas (insertion reports only on genuine delta
// runs — a run after a deletion falls back to full and says so), and
// (b) the mutual-support cycle {P(x), Q(x)} exists exactly when some
// external support survives, under arbitrary orderings of support
// arriving and draining.
func FuzzInsertDelete(f *testing.F) {
	// Seeds: drain then re-add a key's support; insert a brand-new key;
	// alternate insert/delete on one key; both provenance layouts (mode
	// byte 0, see fuzzOptions).
	// Action nibbles: 0/1/2 = del R/P/Q, 3/4/5 = ins R/P/Q.
	f.Add([]byte{0, 0x00, 0x30, 0x00})             // del R(0), ins R(0), del R(0)
	f.Add([]byte{1, 0x33, 0x43, 0x03, 0x13, 0x23}) // new key 3: ins R, ins P, drain all
	f.Add([]byte{0, 0x11, 0x41, 0x21, 0x51})       // mixed P/Q churn on key 1
	f.Add([]byte{1, 0x30, 0x30, 0x00, 0x00})       // duplicate insert, repeated delete
	f.Add([]byte{4, 0x33, 0x43, 0x03, 0x13, 0x23})

	const domain = 4 // one key beyond the initial data
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 || len(ops) > 24 {
			t.Skip()
		}
		sys := buildCycleSetting(t, fuzzOptions(ops[0]))
		type support struct{ r, p, q bool }
		present := map[int64]*support{}
		for x := int64(0); x < domain; x++ {
			present[x] = &support{r: x < 3, p: x == 1, q: x == 1 || x == 2}
		}
		for _, op := range ops[1:] {
			action := int(op>>4) % 6
			rel := []string{"R", "P", "Q"}[action%3]
			insert := action >= 3
			x := int64(op&0x0f) % domain
			key := []model.Datum{x}
			sup := present[x]

			tuplesBefore := publicRowCount(sys)
			derivsBefore := derivationCount(t, sys)

			if insert {
				if err := sys.InsertLocal(rel, model.Tuple{x}); err != nil {
					t.Fatal(err)
				}
				report, err := sys.RunDelta()
				if err != nil {
					t.Fatal(err)
				}
				if !report.Full {
					if got := derivationCount(t, sys) - derivsBefore; got != len(report.InsertedDerivations) {
						t.Fatalf("InsertedDerivations=%d, storage gained %d derivations (op ins %s[%d])",
							len(report.InsertedDerivations), got, rel, x)
					}
				}
				switch rel {
				case "R":
					sup.r = true
				case "P":
					sup.p = true
				case "Q":
					sup.q = true
				}
			} else {
				report, err := sys.DeleteLocal(rel, key)
				if err != nil {
					t.Fatal(err)
				}
				if got := tuplesBefore - publicRowCount(sys); got != report.TuplesDeleted {
					t.Fatalf("TuplesDeleted=%d, storage lost %d rows (op del %s[%d])",
						report.TuplesDeleted, got, rel, x)
				}
				if got := derivsBefore - derivationCount(t, sys); got != report.DerivationsDeleted {
					t.Fatalf("DerivationsDeleted=%d, storage lost %d derivations (op del %s[%d])",
						report.DerivationsDeleted, got, rel, x)
				}
				switch rel {
				case "R":
					sup.r = false
				case "P":
					sup.p = false
				case "Q":
					sup.q = false
				}
			}

			// The whole cycle lives or dies with its external support.
			for y := int64(0); y < domain; y++ {
				wantAlive := present[y].r || present[y].p || present[y].q
				_, pAlive := sys.DB.MustTable("P").LookupKey([]model.Datum{y})
				_, qAlive := sys.DB.MustTable("Q").LookupKey([]model.Datum{y})
				if pAlive != wantAlive || qAlive != wantAlive {
					t.Fatalf("key %d: want alive=%v, got P=%v Q=%v", y, wantAlive, pAlive, qAlive)
				}
				_, rAlive := sys.DB.MustTable("R").LookupKey([]model.Datum{y})
				if rAlive != present[y].r {
					t.Fatalf("key %d: R alive=%v, want %v", y, rAlive, present[y].r)
				}
			}
		}
	})
}

// FuzzInterleavedChurn fuzzes the journal-repair path: unlike
// FuzzInsertDelete it buffers multiple inserts before a run and
// interleaves deletions at arbitrary points (including while inserts
// are pending, exercising the pending-buffer purge), asserting that
// (a) the delta chain NEVER breaks — DeleteLocal repairs the
// persistent journals, so every RunDelta after the initial exchange
// reports Full=false, (b) whenever no inserts are pending the
// journals mirror the backing tables exactly, and (c) after every run
// the mutual-support cycle {P(x), Q(x)} exists exactly when some
// external support survives. Action nibbles: 0/1/2 = del R/P/Q,
// 3/4/5 = ins R/P/Q (buffered), 6/7 = RunDelta.
func FuzzInterleavedChurn(f *testing.F) {
	// Seeds: churn one key through delete→insert→run; buffer several
	// inserts across a deletion before running; delete a pending row
	// before it ever propagates; both provenance layouts (mode byte 0,
	// see fuzzOptions).
	f.Add([]byte{0, 0x00, 0x30, 0x60, 0x00, 0x60})       // del R0, ins R0, run, del R0, run
	f.Add([]byte{1, 0x33, 0x43, 0x01, 0x60, 0x13, 0x70}) // ins R3+P3 pending, del P1, run, del P3, run
	f.Add([]byte{0, 0x31, 0x11, 0x60})                   // ins buffered then its key's P support deleted
	f.Add([]byte{1, 0x02, 0x12, 0x22, 0x60, 0x32, 0x60}) // drain key 2, run, re-add, run
	f.Add([]byte{0, 0x60, 0x60, 0x00, 0x60})             // idle runs around a deletion
	f.Add([]byte{2, 0x33, 0x43, 0x01, 0x60, 0x13, 0x70}) // churn across pending inserts
	f.Add([]byte{7, 0x00, 0x30, 0x60, 0x00, 0x60})       // materialized provenance

	const domain = 4
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 || len(ops) > 24 {
			t.Skip()
		}
		sys := buildCycleSetting(t, fuzzOptions(ops[0]))
		type support struct{ r, p, q bool }
		present := map[int64]*support{}
		for x := int64(0); x < domain; x++ {
			present[x] = &support{r: x < 3, p: x == 1, q: x == 1 || x == 2}
		}
		pending := 0
		checkCycle := func(where string) {
			t.Helper()
			for y := int64(0); y < domain; y++ {
				wantAlive := present[y].r || present[y].p || present[y].q
				_, pAlive := sys.DB.MustTable("P").LookupKey([]model.Datum{y})
				_, qAlive := sys.DB.MustTable("Q").LookupKey([]model.Datum{y})
				if pAlive != wantAlive || qAlive != wantAlive {
					t.Fatalf("%s: key %d: want alive=%v, got P=%v Q=%v", where, y, wantAlive, pAlive, qAlive)
				}
			}
		}
		for _, op := range ops[1:] {
			action := int(op>>4) % 8
			x := int64(op&0x0f) % domain
			sup := present[x]
			switch {
			case action < 3: // delete
				rel := []string{"R", "P", "Q"}[action]
				tuplesBefore := publicRowCount(sys)
				derivsBefore := derivationCount(t, sys)
				report, err := sys.DeleteLocal(rel, []model.Datum{x})
				if err != nil {
					t.Fatal(err)
				}
				if got := tuplesBefore - publicRowCount(sys); got != report.TuplesDeleted {
					t.Fatalf("TuplesDeleted=%d, storage lost %d rows (op del %s[%d])",
						report.TuplesDeleted, got, rel, x)
				}
				if got := derivsBefore - derivationCount(t, sys); got != report.DerivationsDeleted {
					t.Fatalf("DerivationsDeleted=%d, storage lost %d derivations (op del %s[%d])",
						report.DerivationsDeleted, got, rel, x)
				}
				if !sys.DeltaReady() {
					t.Fatalf("deletion of %s[%d] broke the delta chain", rel, x)
				}
				switch rel {
				case "R":
					sup.r = false
				case "P":
					sup.p = false
				case "Q":
					sup.q = false
				}
				// With inserts buffered the journals legitimately lag
				// the tables and public rows of freshly inserted keys
				// don't exist yet, so full-coherence checks only run
				// when nothing was buffered since the last run.
				if pending == 0 {
					if err := sys.JournalsMirrorTables(); err != nil {
						t.Fatalf("journals diverged after del %s[%d]: %v", rel, x, err)
					}
					checkCycle(fmt.Sprintf("after del %s[%d]", rel, x))
				}
			case action < 6: // insert (buffered)
				rel := []string{"R", "P", "Q"}[action-3]
				if err := sys.InsertLocal(rel, model.Tuple{x}); err != nil {
					t.Fatal(err)
				}
				fresh := false
				switch rel {
				case "R":
					fresh, sup.r = !sup.r, true
				case "P":
					fresh, sup.p = !sup.p, true
				case "Q":
					fresh, sup.q = !sup.q, true
				}
				if fresh {
					pending++
				}
			default: // run
				derivsBefore := derivationCount(t, sys)
				report, err := sys.RunDelta()
				if err != nil {
					t.Fatal(err)
				}
				if report.Full {
					t.Fatal("RunDelta fell back to a full fixpoint")
				}
				if got := derivationCount(t, sys) - derivsBefore; got != len(report.InsertedDerivations) {
					t.Fatalf("InsertedDerivations=%d, storage gained %d derivations",
						len(report.InsertedDerivations), got)
				}
				pending = 0
				if err := sys.JournalsMirrorTables(); err != nil {
					t.Fatalf("journals diverged after delta run: %v", err)
				}
				checkCycle("after run")
			}
		}
	})
}

// fuzzOptions decodes the mode byte every fuzz target reserves at
// ops[0]: bit 0 switches MaterializeAll, so the corpus explores both
// provenance layouts. The other bits are ignored: seeds whose mode byte
// sets them (2, 4, 7) decode exactly like 0 or 1.
func fuzzOptions(mode byte) exchange.Options {
	return exchange.Options{MaterializeAll: mode%2 == 1}
}

// buildCycleSetting constructs the P⇄Q / R→P schema with base data
// R_l = {0,1,2}, P_l = {1}, Q_l = {1,2}.
func buildCycleSetting(t *testing.T, opts exchange.Options) *exchange.System {
	t.Helper()
	schema := model.NewSchema()
	cols := []model.Column{{Name: "x", Type: model.TypeInt}}
	for _, name := range []string{"P", "Q", "R"} {
		if err := schema.AddRelation(model.MustRelation(name, cols, "x")); err != nil {
			t.Fatal(err)
		}
	}
	v := model.V
	for _, m := range []*model.Mapping{
		model.NewMapping("mRP", model.NewAtom("P", v("x")), model.NewAtom("R", v("x"))),
		model.NewMapping("mPQ", model.NewAtom("Q", v("x")), model.NewAtom("P", v("x"))),
		model.NewMapping("mQP", model.NewAtom("P", v("x")), model.NewAtom("Q", v("x"))),
	} {
		if err := schema.AddMapping(m); err != nil {
			t.Fatal(err)
		}
	}
	sys, err := exchange.NewSystem(schema, opts)
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(sys.InsertLocal("R", model.Tuple{int64(0)}, model.Tuple{int64(1)}, model.Tuple{int64(2)}))
	must(sys.InsertLocal("P", model.Tuple{int64(1)}))
	must(sys.InsertLocal("Q", model.Tuple{int64(1)}, model.Tuple{int64(2)}))
	must(sys.Run())
	return sys
}

func publicRowCount(sys *exchange.System) int {
	total := 0
	for _, r := range sys.Schema.PublicRelations() {
		total += sys.DB.MustTable(r.Name).Len()
	}
	return total
}

// derivationCount counts all derivations, materialized and virtual.
func derivationCount(t *testing.T, sys *exchange.System) int {
	t.Helper()
	total := 0
	for _, m := range sys.Schema.Mappings() {
		rows, err := sys.ProvRows(m.Name)
		if err != nil {
			t.Fatal(err)
		}
		total += len(rows)
	}
	return total
}
