package relstore

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/model"
)

func rowSet(t *Table) string {
	rows := t.SortedRows()
	parts := make([]string, len(rows))
	for i, r := range rows {
		parts[i] = fmt.Sprint(r)
	}
	return strings.Join(parts, ";")
}

func TestSnapshotIsolatesBatchedCommit(t *testing.T) {
	db := NewDatabase()
	tbl := newKeyedTable(t, db, "R")
	tbl.Insert(model.Tuple{int64(1), "a"})
	tbl.Insert(model.Tuple{int64(2), "b"})

	snap := db.Snapshot()
	defer snap.Close()
	view := snap.MustTable("R")
	before := rowSet(view)

	// A batched commit: delete one row, insert another, overwrite
	// nothing — invisible to the snapshot, atomic for later readers.
	db.BeginBatch()
	if ok, err := tbl.Delete([]model.Datum{int64(1)}); err != nil || !ok {
		t.Fatalf("delete: %v %v", ok, err)
	}
	tbl.Insert(model.Tuple{int64(3), "c"})

	// Mid-batch: the pending writes are invisible even to a fresh
	// snapshot.
	mid := db.Snapshot()
	if got := rowSet(mid.MustTable("R")); got != before {
		t.Errorf("mid-batch snapshot sees pending writes: %q vs %q", got, before)
	}
	mid.Close()
	db.EndBatch()

	// The old snapshot still reads its epoch.
	if got := rowSet(view); got != before {
		t.Errorf("snapshot changed after commit: %q vs %q", got, before)
	}
	if _, ok := view.LookupKey([]model.Datum{int64(1)}); !ok {
		t.Error("snapshot lost the deleted row")
	}
	if _, ok := view.LookupKey([]model.Datum{int64(3)}); ok {
		t.Error("snapshot sees post-commit insert")
	}
	// A fresh snapshot sees the committed state.
	after := db.Snapshot()
	defer after.Close()
	if _, ok := after.MustTable("R").LookupKey([]model.Datum{int64(1)}); ok {
		t.Error("fresh snapshot still sees deleted row")
	}
	if _, ok := after.MustTable("R").LookupKey([]model.Datum{int64(3)}); !ok {
		t.Error("fresh snapshot misses committed insert")
	}
	if tbl.Len() != 2 || after.MustTable("R").Len() != 2 || view.Len() != 2 {
		t.Errorf("Len mismatch: writer %d, after %d, old view %d", tbl.Len(), after.MustTable("R").Len(), view.Len())
	}
}

func TestSnapshotUnbatchedWritesVisibleImmediately(t *testing.T) {
	db := NewDatabase()
	tbl := newKeyedTable(t, db, "R")
	tbl.Insert(model.Tuple{int64(1), "a"})
	s1 := db.Snapshot()
	defer s1.Close()
	if s1.MustTable("R").Len() != 1 {
		t.Fatalf("unbatched insert invisible to a later snapshot")
	}
	tbl.Delete([]model.Datum{int64(1)})
	if s1.MustTable("R").Len() != 1 {
		t.Error("unbatched delete leaked into older snapshot")
	}
	s2 := db.Snapshot()
	defer s2.Close()
	if s2.MustTable("R").Len() != 0 {
		t.Error("unbatched delete invisible to a later snapshot")
	}
}

func TestSnapshotDeleteReinsertChain(t *testing.T) {
	db := NewDatabase()
	tbl := newKeyedTable(t, db, "R")
	tbl.Insert(model.Tuple{int64(1), "v1"})
	sOld := db.Snapshot()
	defer sOld.Close()

	db.BeginBatch()
	tbl.Delete([]model.Datum{int64(1)})
	tbl.Insert(model.Tuple{int64(1), "v2"})
	db.EndBatch()
	sNew := db.Snapshot()
	defer sNew.Close()

	if row, ok := sOld.MustTable("R").LookupKey([]model.Datum{int64(1)}); !ok || row[1] != "v1" {
		t.Errorf("old snapshot key 1 = %v %v, want v1", row, ok)
	}
	if row, ok := sNew.MustTable("R").LookupKey([]model.Datum{int64(1)}); !ok || row[1] != "v2" {
		t.Errorf("new snapshot key 1 = %v %v, want v2", row, ok)
	}
	if row, ok := tbl.LookupKey([]model.Datum{int64(1)}); !ok || row[1] != "v2" {
		t.Errorf("writer key 1 = %v %v, want v2", row, ok)
	}
	// Probe paths agree with lookup paths on both versions.
	if got := sOld.MustTable("R").Probe([]int{0}, []model.Datum{int64(1)}); len(got) != 1 || got[0][1] != "v1" {
		t.Errorf("old snapshot probe = %v", got)
	}
	if got := sNew.MustTable("R").Probe([]int{0}, []model.Datum{int64(1)}); len(got) != 1 || got[0][1] != "v2" {
		t.Errorf("new snapshot probe = %v", got)
	}
}

func TestReclamationWaitsForPins(t *testing.T) {
	db := NewDatabase()
	tbl := newKeyedTable(t, db, "R")
	for i := int64(0); i < 10; i++ {
		tbl.Insert(model.Tuple{i, "x"})
	}
	snap := db.Snapshot()
	for i := int64(0); i < 10; i++ {
		tbl.Delete([]model.Datum{i})
	}
	// The snapshot still reads all ten rows: nothing was reclaimed.
	if n := snap.MustTable("R").Len(); n != 10 {
		t.Fatalf("pinned snapshot lost rows: %d", n)
	}
	if db.ndead.Load() != 10 {
		t.Fatalf("expected 10 dead slots pending, got %d", db.ndead.Load())
	}
	snap.Close()
	// Closing the pin reclaims; the next write triggers the sweep too,
	// but Close already ran it.
	if db.ndead.Load() != 0 {
		t.Errorf("dead slots not reclaimed after Close: %d", db.ndead.Load())
	}
	if got := len(tbl.s.be.free); got != 10 {
		t.Errorf("free list = %d slots, want 10", got)
	}
	// Double Close is a no-op.
	snap.Close()
}

func TestSnapshotCursorStableAcrossEpochBoundary(t *testing.T) {
	db := NewDatabase()
	tbl := newKeyedTable(t, db, "R")
	for i := int64(0); i < 100; i++ {
		tbl.Insert(model.Tuple{i, "x"})
	}
	snap := db.Snapshot()
	defer snap.Close()
	// Iterate half, then churn the writer hard from inside the callback
	// (deletes, reinserts, slot reuse; the writes take the table latch,
	// which Iterate does not hold while it yields), then iterate the
	// rest: the scan must deliver exactly the snapshot's 100 keys.
	seen := map[int64]bool{}
	snap.MustTable("R").Iterate(func(row model.Tuple) bool {
		k := row[0].(int64)
		if seen[k] {
			t.Fatalf("scan yielded key %d twice", k)
		}
		seen[k] = true
		if len(seen) == 50 {
			for i := int64(0); i < 100; i += 2 {
				tbl.Delete([]model.Datum{i})
			}
			for i := int64(200); i < 300; i++ {
				tbl.Insert(model.Tuple{i, "y"})
			}
		}
		return true
	})
	if len(seen) != 100 {
		t.Fatalf("cursor saw %d keys, want 100", len(seen))
	}
	for i := int64(0); i < 100; i++ {
		if !seen[i] {
			t.Fatalf("cursor missed key %d", i)
		}
	}
}

func TestSnapshotViewIsReadOnly(t *testing.T) {
	db := NewDatabase()
	tbl := newKeyedTable(t, db, "R")
	tbl.Insert(model.Tuple{int64(1), "a"})
	snap := db.Snapshot()
	defer snap.Close()
	view := snap.MustTable("R")
	if _, err := view.Insert(model.Tuple{int64(9), "z"}); err == nil {
		t.Error("Insert on a view should fail")
	}
	if _, err := view.Delete([]model.Datum{int64(1)}); err == nil {
		t.Error("Delete on a view should fail")
	}
	if _, err := snap.CreateTable(&TableSchema{Name: "S"}); err == nil {
		t.Error("CreateTable on a view should fail")
	}
	// EnsureIndex on a view is a no-op; probes fall back to scanning.
	view.EnsureIndex([]int{1})
	if view.HasIndex([]int{1}) {
		t.Error("EnsureIndex on a view must not build an index")
	}
	if got := view.Probe([]int{1}, []model.Datum{"a"}); len(got) != 1 {
		t.Errorf("scan-fallback probe = %v", got)
	}
}

func TestSnapshotIndexProbesFilterByEpoch(t *testing.T) {
	db := NewDatabase()
	tbl := newKeyedTable(t, db, "R")
	tbl.CreateIndex([]int{1})
	tbl.Insert(model.Tuple{int64(1), "a"})
	tbl.Insert(model.Tuple{int64(2), "a"})
	snap := db.Snapshot()
	defer snap.Close()
	tbl.Delete([]model.Datum{int64(1)})
	tbl.Insert(model.Tuple{int64(3), "a"})
	if got := snap.MustTable("R").Probe([]int{1}, []model.Datum{"a"}); len(got) != 2 {
		t.Errorf("snapshot indexed probe = %d rows, want 2", len(got))
	}
	if got := tbl.Probe([]int{1}, []model.Datum{"a"}); len(got) != 2 {
		t.Errorf("writer indexed probe = %d rows, want 2 (keys 2,3)", len(got))
	}
}

func TestStandaloneTableDeletesEagerly(t *testing.T) {
	tbl := NewTable(&TableSchema{
		Name:    "solo",
		Columns: []model.Column{intCol("id"), strCol("v")},
		Key:     []int{0},
	})
	tbl.Insert(model.Tuple{int64(1), "a"})
	tbl.Delete([]model.Datum{int64(1)})
	if len(tbl.s.be.free) != 1 || len(tbl.s.dead) != 0 {
		t.Errorf("standalone delete not eager: free=%d dead=%d", len(tbl.s.be.free), len(tbl.s.dead))
	}
}

// TestConcurrentSnapshotReadsUnderChurn is the relstore-level race
// smoke: reader goroutines iterate, probe, and cursor-scan pinned
// snapshots while the writer churns delete/insert cycles. Under
// -race this exercises every locked path; the assertion is that each
// reader observes an internally consistent snapshot (a full key range
// of one parity).
func TestConcurrentSnapshotReadsUnderChurn(t *testing.T) {
	db := NewDatabase()
	tbl := newKeyedTable(t, db, "R")
	tbl.CreateIndex([]int{1})
	const n = 50
	// State A: keys 0..n-1 tagged "a". Each commit flips atomically
	// to tag "b" and back. A snapshot must see exactly n rows of one
	// tag.
	for i := int64(0); i < n; i++ {
		tbl.Insert(model.Tuple{i, "a"})
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tag := [2]string{"a", "b"}
		for gen := 1; ; gen++ {
			select {
			case <-stop:
				return
			default:
			}
			db.BeginBatch()
			for i := int64(0); i < n; i++ {
				tbl.Delete([]model.Datum{i})
				tbl.Insert(model.Tuple{i, tag[gen%2]})
			}
			db.EndBatch()
		}
	}()
	var readers sync.WaitGroup
	errs := make(chan error, 8)
	for r := 0; r < 8; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for iter := 0; iter < 40; iter++ {
				snap := db.Snapshot()
				view := snap.MustTable("R")
				tags := map[string]int{}
				keys := map[int64]bool{}
				view.Iterate(func(row model.Tuple) bool {
					tags[row[1].(string)]++
					keys[row[0].(int64)] = true
					return true
				})
				if len(keys) != n || len(tags) != 1 {
					errs <- fmt.Errorf("inconsistent snapshot: %d keys, tags %v", len(keys), tags)
					snap.Close()
					return
				}
				// The indexed probe agrees with the iteration.
				var tag string
				for k := range tags {
					tag = k
				}
				if got := view.Probe([]int{1}, []model.Datum{tag}); len(got) != n {
					errs <- fmt.Errorf("probe saw %d rows of %q, want %d", len(got), tag, n)
					snap.Close()
					return
				}
				snap.Close()
			}
		}()
	}
	readers.Wait()
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

// FuzzSnapshotOps interprets op bytes as inserts, deletes, batch
// boundaries, snapshot pins, snapshot reads, and retention changes,
// checking every snapshot against a map-based oracle of the state it
// pinned. When an op enables history retention, the harness also
// records the oracle state at every published epoch and replays the
// whole history through SnapshotAt at the end: retained epochs must
// match their recorded state exactly, swept ones must be rejected with
// ErrEpochOutOfRange — the retention sweep boundary under arbitrary
// op interleavings.
func FuzzSnapshotOps(f *testing.F) {
	// Seed exercising reads across an epoch boundary: insert, pin,
	// batched delete+reinsert, read old pin, pin new, compare.
	f.Add([]byte{0x10, 0x11, 0x12, 0x80, 0x40, 0x20, 0x11, 0x41, 0x90, 0x91, 0xC0, 0xC1, 0x21, 0x80, 0xC0})
	f.Add([]byte{0x10, 0x80, 0x20, 0x10, 0x80, 0xC0})
	// Retention seeds: enable a 3-epoch horizon (0xB2) / retain-all
	// (0xBF) early, then churn one key past the horizon.
	f.Add([]byte{0xB2, 0x10, 0x40, 0x40, 0x40, 0x40, 0x40, 0x40, 0x20, 0x10})
	f.Add([]byte{0x10, 0xBF, 0x90, 0x40, 0x41, 0xA0, 0x40, 0x20, 0x80, 0xC0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		db := NewDatabase()
		tbl, err := db.CreateTable(&TableSchema{
			Name:    "F",
			Columns: []model.Column{intCol("id"), intCol("gen")},
			Key:     []int{0},
		})
		if err != nil {
			t.Fatal(err)
		}
		oracle := map[int64]int64{} // key -> gen, the writer's view
		type pinned struct {
			snap  *Database
			state map[int64]int64
		}
		var pins []pinned
		var batchBase map[int64]int64 // pre-batch oracle during a batch
		inBatch := false
		gen := int64(0)
		// Per-epoch oracle for the time-travel end-check, recorded only
		// once retention is on (epochs before that are not answerable).
		retention := false
		history := map[uint64]map[int64]int64{}
		record := func() {
			if !retention || inBatch {
				return
			}
			state := make(map[int64]int64, len(oracle))
			for k, g := range oracle {
				state[k] = g
			}
			history[db.Epoch()] = state
		}
		defer func() {
			for _, p := range pins {
				p.snap.Close()
			}
		}()
		check := func(p pinned) {
			view := p.snap.MustTable("F")
			got := map[int64]int64{}
			view.Iterate(func(row model.Tuple) bool {
				got[row[0].(int64)] = row[1].(int64)
				return true
			})
			if len(got) != len(p.state) {
				t.Fatalf("snapshot rows = %v, want %v", got, p.state)
			}
			for k, g := range p.state {
				if got[k] != g {
					t.Fatalf("snapshot key %d gen %d, want %d", k, got[k], g)
				}
				if row, ok := view.LookupKey([]model.Datum{k}); !ok || row[1].(int64) != g {
					t.Fatalf("snapshot lookup key %d = %v %v, want gen %d", k, row, ok, g)
				}
			}
		}
		for _, op := range ops {
			key := int64(op & 0x0F)
			switch {
			case op&0xF0 == 0x10: // insert key
				gen++
				ins, err := tbl.Insert(model.Tuple{key, gen})
				if err != nil {
					t.Fatal(err)
				}
				if _, had := oracle[key]; ins == had {
					t.Fatalf("insert key %d reported %v, oracle had=%v", key, ins, had)
				}
				if ins {
					oracle[key] = gen
				}
			case op&0xF0 == 0x20: // delete key
				ok, err := tbl.Delete([]model.Datum{key})
				if err != nil {
					t.Fatal(err)
				}
				if _, had := oracle[key]; ok != had {
					t.Fatalf("delete key %d reported %v, oracle had=%v", key, ok, had)
				}
				delete(oracle, key)
			case op&0xF0 == 0x40: // delete+reinsert in place (chain builder)
				if _, had := oracle[key]; had {
					tbl.Delete([]model.Datum{key})
					gen++
					tbl.Insert(model.Tuple{key, gen})
					oracle[key] = gen
				}
			case op&0xF0 == 0x80: // pin a snapshot
				state := make(map[int64]int64, len(oracle))
				if !inBatch {
					for k, g := range oracle {
						state[k] = g
					}
				} else {
					// Mid-batch snapshots see the pre-batch state; the
					// oracle for them was captured at batch start.
					for k, g := range batchBase {
						state[k] = g
					}
				}
				pins = append(pins, pinned{snap: db.Snapshot(), state: state})
			case op&0xF0 == 0x90: // begin batch
				if !inBatch {
					inBatch = true
					batchBase = make(map[int64]int64, len(oracle))
					for k, g := range oracle {
						batchBase[k] = g
					}
					db.BeginBatch()
				}
			case op&0xF0 == 0xA0: // end batch
				if inBatch {
					inBatch = false
					db.EndBatch()
				}
			case op&0xF0 == 0xB0: // set retention horizon
				switch {
				case key == 0:
					db.SetRetention(0)
					retention = false
				case key == 0x0F:
					db.SetRetention(RetainAll)
					retention = true
				default:
					db.SetRetention(uint64(key) + 1)
					retention = true
				}
			case op&0xF0 == 0xC0: // check + release oldest pin
				if len(pins) > 0 {
					check(pins[0])
					pins[0].snap.Close()
					pins = pins[1:]
				}
			}
			record()
		}
		if inBatch {
			inBatch = false
			db.EndBatch()
			record()
		}
		for _, p := range pins {
			check(p)
		}
		// Time-travel end-check: every recorded epoch either answers
		// with exactly its recorded state or is rejected as out of
		// range, according to the final retention floor.
		pub := db.Epoch()
		floor := db.RetentionFloor()
		for e, state := range history {
			snap, err := db.SnapshotAt(e)
			if e != pub && (floor == 0 || e < floor) {
				var oor *ErrEpochOutOfRange
				if !errors.As(err, &oor) {
					t.Fatalf("SnapshotAt(%d) = %v, want ErrEpochOutOfRange (floor %d, pub %d)", e, err, floor, pub)
				}
				continue
			}
			if err != nil {
				t.Fatalf("SnapshotAt(%d) in window [%d, %d]: %v", e, floor, pub, err)
			}
			got := map[int64]int64{}
			snap.MustTable("F").Iterate(func(row model.Tuple) bool {
				got[row[0].(int64)] = row[1].(int64)
				return true
			})
			if len(got) != len(state) {
				t.Fatalf("as-of %d rows = %v, want %v", e, got, state)
			}
			for k, g := range state {
				if got[k] != g {
					t.Fatalf("as-of %d key %d gen %d, want %d", e, k, got[k], g)
				}
			}
			snap.Close()
		}
		// Writer's final state matches the oracle.
		got := map[int64]int64{}
		tbl.Iterate(func(row model.Tuple) bool {
			got[row[0].(int64)] = row[1].(int64)
			return true
		})
		if len(got) != len(oracle) {
			t.Fatalf("writer rows = %v, want %v", got, oracle)
		}
		var keys []int64
		for k := range oracle {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, k := range keys {
			if got[k] != oracle[k] {
				t.Fatalf("writer key %d gen %d, want %d", k, got[k], oracle[k])
			}
		}
	})
}
