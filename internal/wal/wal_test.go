package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/model"
	"repro/internal/relstore"
)

func keyedSchema(name string) *relstore.TableSchema {
	return &relstore.TableSchema{
		Name: name,
		Columns: []model.Column{
			{Name: "k", Type: model.TypeInt},
			{Name: "v", Type: model.TypeString},
		},
		Key: []int{0},
	}
}

func keylessSchema(name string) *relstore.TableSchema {
	return &relstore.TableSchema{
		Name: name,
		Columns: []model.Column{
			{Name: "a", Type: model.TypeInt},
			{Name: "b", Type: model.TypeInt},
		},
	}
}

// signature renders every table's sorted live rows.
func signature(db *relstore.Database) string {
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

// TestStoreRoundTrip commits inserts, deletes, and DDL through the
// hook, reopens from disk, and expects the identical database.
func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	db := s.DB()
	r, err := db.CreateTable(keyedSchema("R"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := db.CreateTable(keylessSchema("M"))
	if err != nil {
		t.Fatal(err)
	}
	db.BeginBatch()
	for i := 0; i < 20; i++ {
		r.Insert(model.Tuple{int64(i), fmt.Sprintf("v%d", i)})
	}
	m.Insert(model.Tuple{int64(1), int64(2)})
	m.Insert(model.Tuple{int64(1), int64(2)})
	m.Insert(model.Tuple{int64(1), int64(2)}) // duplicates survive (multiset)
	m.Insert(model.Tuple{int64(3), int64(4)})
	db.EndBatch()
	db.BeginBatch()
	r.Delete([]model.Datum{int64(3)})
	r.Insert(model.Tuple{int64(3), "replaced"})
	// DeleteWhere kills two of the three copies (one OpDeleteRow each);
	// replay must remove exactly two, not all matches.
	killed := 0
	m.DeleteWhere(func(row model.Tuple) bool {
		if killed == 2 || row[0] != int64(1) {
			return false
		}
		killed++
		return true
	})
	db.EndBatch()
	// DDL and per-op (non-batch) commits are logged too.
	db.CreateTable(keyedSchema("S"))
	db.MustTable("S").Insert(model.Tuple{int64(9), "s"})
	db.DropTable("S")
	want := signature(db)
	epoch := db.Epoch()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := signature(s2.DB()); got != want {
		t.Fatalf("recovered database differs\ngot:\n%s\nwant:\n%s", got, want)
	}
	if got := s2.DB().Epoch(); got < epoch {
		t.Fatalf("recovered epoch %d behind on-disk %d", got, epoch)
	}
	// Keyless duplicate count survived: one (1,2) was deleted, one kept.
	n := 0
	s2.DB().MustTable("M").Iterate(func(row model.Tuple) bool {
		if row[0] == int64(1) {
			n++
		}
		return true
	})
	if n != 1 {
		t.Fatalf("keyless multiset replayed to %d copies of (1,2), want 1", n)
	}
}

// TestCheckpointRotation checkpoints mid-history and checks the old
// generation is gone, recovery replays only the suffix, and the result
// matches.
func TestCheckpointRotation(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	db := s.DB()
	r, _ := db.CreateTable(keyedSchema("R"))
	for i := 0; i < 50; i++ {
		db.BeginBatch()
		r.Insert(model.Tuple{int64(i), "x"})
		db.EndBatch()
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if s.Pending() != 0 {
		t.Fatalf("pending %d after checkpoint", s.Pending())
	}
	for i := 50; i < 60; i++ {
		db.BeginBatch()
		r.Insert(model.Tuple{int64(i), "x"})
		db.EndBatch()
	}
	want := signature(db)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := os.Stat(filepath.Join(dir, "wal-0.log")); !os.IsNotExist(err) {
		t.Fatal("old generation log survived the checkpoint")
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := signature(s2.DB()); got != want {
		t.Fatalf("post-checkpoint recovery differs\ngot:\n%s\nwant:\n%s", got, want)
	}
	if s2.Replayed() != 10 {
		t.Fatalf("replayed %d batches, want the 10-batch suffix", s2.Replayed())
	}
}

// quiesce waits until the store's background goroutine has finished.
func quiesce(s *Store) {
	s.mu.Lock()
	s.waitIdle()
	s.mu.Unlock()
}

// commitRows commits one single-row batch per key into keyed table R.
func commitRows(db *relstore.Database, from, to int) {
	r := db.MustTable("R")
	for i := from; i < to; i++ {
		db.BeginBatch()
		r.Insert(model.Tuple{int64(i), "x"})
		db.EndBatch()
	}
}

// TestTornTail cuts and corrupts the log's tail and expects recovery to
// keep every complete batch, drop the torn one, and resume appending
// over it without truncating anything.
func TestTornTail(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	db := s.DB()
	db.CreateTable(keyedSchema("R"))
	commitRows(db, 0, 10)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(logPath(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{len(segMagic) + 1, len(blob) / 2, len(blob) - 3} {
		sub := t.TempDir()
		// The bytes after the cut are what a torn write leaves: zeros,
		// as the blocks of a segment are written before it goes live.
		img := append(append([]byte(nil), blob[:cut]...), make([]byte, len(blob)-cut+64)...)
		if err := os.WriteFile(logPath(sub, 0), img, 0o644); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(sub, Options{})
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		got := 0
		if tb, ok := s2.DB().Table("R"); ok {
			got = tb.Len()
		}
		if got > 10 || (cut == len(blob)-3 && got != 9) {
			t.Fatalf("cut=%d: recovered %d rows", cut, got)
		}
		// Appends resume over the torn frame; a reopen sees them.
		if got > 0 {
			commitRows(s2.DB(), 100, 101)
		}
		want := signature(s2.DB())
		if err := s2.Close(); err != nil {
			t.Fatal(err)
		}
		if st, err := os.Stat(logPath(sub, 0)); err != nil || st.Size() < int64(len(img)) {
			t.Fatalf("cut=%d: log truncated (%v, %d < %d bytes)", cut, err, st.Size(), len(img))
		}
		s3, err := Open(sub, Options{})
		if err != nil {
			t.Fatalf("cut=%d: reopen: %v", cut, err)
		}
		if got := signature(s3.DB()); got != want {
			t.Fatalf("cut=%d: reopen after resumed appends differs\ngot:\n%s\nwant:\n%s", cut, got, want)
		}
		s3.Close()
	}
	// Flipping a payload byte mid-file cuts replay at the corrupt frame.
	flip := append([]byte(nil), blob...)
	flip[len(flip)/2] ^= 0xff
	sub := t.TempDir()
	if err := os.WriteFile(logPath(sub, 0), flip, 0o644); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(sub, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if tb, ok := s3.DB().Table("R"); ok && tb.Len() >= 10 {
		t.Fatalf("corrupt frame not dropped: %d rows", tb.Len())
	}
}

// TestBatchCodecRoundTrip round-trips every op kind through the batch
// codec.
func TestBatchCodecRoundTrip(t *testing.T) {
	ops := []relstore.LoggedOp{
		{Kind: relstore.OpCreateTable, Table: "R", Schema: keyedSchema("R")},
		{Kind: relstore.OpInsert, Table: "R", Row: model.Tuple{int64(-5), "héllo|world"}},
		{Kind: relstore.OpInsert, Table: "R", Row: model.Tuple{int64(1), nil}},
		{Kind: relstore.OpDeleteKey, Table: "R", Key: model.EncodeDatums([]model.Datum{int64(-5)})},
		{Kind: relstore.OpDeleteRow, Table: "M", Row: model.Tuple{3.25, true}},
		{Kind: relstore.OpDropTable, Table: "R"},
	}
	payload := AppendBatch(nil, 42, ops)
	b, err := DecodeBatch(payload)
	if err != nil {
		t.Fatal(err)
	}
	if b.Epoch != 42 || len(b.Ops) != len(ops) {
		t.Fatalf("decoded epoch=%d nops=%d", b.Epoch, len(b.Ops))
	}
	if got := model.EncodeDatums(b.Ops[1].Row); got != model.EncodeDatums(ops[1].Row) {
		t.Fatalf("insert row round-trip: %q", got)
	}
	if b.Ops[3].Key != ops[3].Key {
		t.Fatalf("delete key round-trip: %q", b.Ops[3].Key)
	}
	if b.Ops[4].Key != model.EncodeDatums(ops[4].Row) {
		t.Fatalf("keyless delete row kept encoded: %q", b.Ops[4].Key)
	}
	sc := b.Ops[0].Schema
	if sc.Name != "R" || len(sc.Columns) != 2 || sc.Columns[1].Type != model.TypeString || len(sc.Key) != 1 {
		t.Fatalf("schema round-trip: %+v", sc)
	}
}

// TestSyncEveryBatching checks the group-commit counter: with
// SyncEvery=8 the store stays correct (durability of the tail is
// traded, correctness of replay is not).
func TestSyncEveryBatching(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SyncEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	db := s.DB()
	r, _ := db.CreateTable(keyedSchema("R"))
	for i := 0; i < 30; i++ {
		db.BeginBatch()
		r.Insert(model.Tuple{int64(i), "x"})
		db.EndBatch()
	}
	want := signature(db)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := signature(s2.DB()); got != want {
		t.Fatalf("SyncEvery recovery differs\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestMaybeCheckpoint starts a checkpoint at the configured cadence,
// and only when none is in flight.
func TestMaybeCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{CheckpointEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	db := s.DB()
	db.CreateTable(keyedSchema("R"))
	started := 0
	for i := 0; i < 12; i++ {
		commitRows(db, i, i+1)
		quiesce(s)
		did, err := s.MaybeCheckpoint()
		if err != nil {
			t.Fatal(err)
		}
		if did {
			started++
			// Due again at once, but one is in flight (or it landed
			// and nothing is pending): never two at a time.
			if again, _ := s.MaybeCheckpoint(); again {
				t.Fatal("MaybeCheckpoint started a second checkpoint on top of the first")
			}
		}
	}
	// 13 logged batches (CreateTable publishes one) at cadence 5.
	if started != 2 {
		t.Fatalf("MaybeCheckpoint started %d checkpoints over 13 batches with cadence 5", started)
	}
	quiesce(s)
	if _, err := os.Stat(ckptPath(dir, s.gen)); err != nil {
		t.Fatalf("latest checkpoint missing: %v", err)
	}
	if st := s.Stats(); st.CheckpointsStarted != 2 || st.CheckpointsLanded != 2 || st.LastCheckpointBytes == 0 {
		t.Fatalf("stats after two checkpoints: %+v", st)
	}
}

// asOfSignature renders table R's sorted rows at one retained epoch.
func asOfSignature(t *testing.T, db *relstore.Database, epoch uint64) string {
	t.Helper()
	snap, err := db.SnapshotAt(epoch)
	if err != nil {
		t.Fatalf("SnapshotAt(%d): %v", epoch, err)
	}
	defer snap.Close()
	sig := ""
	for _, row := range snap.MustTable("R").SortedRows() {
		sig += model.EncodeDatums(row) + ";"
	}
	return sig
}

// TestHistorySurvivesRestart commits epochs with retention on, takes a
// checkpoint mid-history, commits more, and reopens: every retained
// epoch must answer identically before and after recovery — including
// epochs older than the checkpoint, whose versions travel inside it.
func TestHistorySurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Retain: relstore.RetainAll})
	if err != nil {
		t.Fatal(err)
	}
	db := s.DB()
	r, err := db.CreateTable(keyedSchema("R"))
	if err != nil {
		t.Fatal(err)
	}
	var epochs []uint64
	commit := func(mutate func()) {
		db.BeginBatch()
		mutate()
		db.EndBatch()
		epochs = append(epochs, db.Epoch())
	}
	commit(func() { r.Insert(model.Tuple{int64(1), "a"}) })
	commit(func() { r.Insert(model.Tuple{int64(2), "b"}) })
	commit(func() {
		r.Delete([]model.Datum{int64(1)})
		r.Insert(model.Tuple{int64(1), "a2"})
	})
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint history arrives through log replay.
	commit(func() { r.Delete([]model.Datum{int64(2)}) })
	commit(func() { r.Insert(model.Tuple{int64(3), "c"}) })

	want := make(map[uint64]string, len(epochs))
	for _, e := range epochs {
		want[e] = asOfSignature(t, db, e)
	}
	floor := db.RetentionFloor()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{Retain: relstore.RetainAll})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	re := s2.DB()
	if got := re.RetentionFloor(); got != floor {
		t.Fatalf("recovered floor %d, want %d", got, floor)
	}
	for _, e := range epochs {
		if got := asOfSignature(t, re, e); got != want[e] {
			t.Errorf("epoch %d after restart:\ngot:  %s\nwant: %s", e, got, want[e])
		}
	}
	// Epoch stamps replayed exactly: the recovered store publishes at
	// the same epoch the original did.
	if got, wantE := re.Epoch(), epochs[len(epochs)-1]; got != wantE {
		t.Errorf("recovered epoch %d, want %d", got, wantE)
	}
}

// TestHistoryFiniteHorizonAcrossRestart reopens a finite-horizon store
// and checks the floor holds: retained epochs answer, swept ones
// reject.
func TestHistoryFiniteHorizonAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	const depth = 3
	s, err := Open(dir, Options{Retain: depth})
	if err != nil {
		t.Fatal(err)
	}
	db := s.DB()
	r, err := db.CreateTable(keyedSchema("R"))
	if err != nil {
		t.Fatal(err)
	}
	var epochs []uint64
	for i := 0; i < 10; i++ {
		db.BeginBatch()
		r.Delete([]model.Datum{int64(1)})
		r.Insert(model.Tuple{int64(1), fmt.Sprintf("g%d", i)})
		db.EndBatch()
		epochs = append(epochs, db.Epoch())
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	floor := db.RetentionFloor()
	want := make(map[uint64]string)
	for _, e := range epochs {
		if e >= floor {
			want[e] = asOfSignature(t, db, e)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{Retain: depth})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	re := s2.DB()
	for _, e := range epochs {
		if sig, ok := want[e]; ok {
			if got := asOfSignature(t, re, e); got != sig {
				t.Errorf("epoch %d after restart: got %s, want %s", e, got, sig)
			}
			continue
		}
		if _, err := re.SnapshotAt(e); err == nil {
			t.Errorf("swept epoch %d answered after restart", e)
		}
	}
}
