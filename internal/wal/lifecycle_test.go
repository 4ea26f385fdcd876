package wal

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/relstore"
)

// insertBatch encodes a one-row insert into keyed table R.
func insertBatch(epoch uint64, key int64) []byte {
	return AppendBatch(nil, epoch, []relstore.LoggedOp{
		{Kind: relstore.OpInsert, Table: "R", Row: model.Tuple{key, "x"}},
	})
}

func createBatch(epoch uint64) []byte {
	return AppendBatch(nil, epoch, []relstore.LoggedOp{
		{Kind: relstore.OpCreateTable, Table: "R", Schema: keyedSchema("R")},
	})
}

// keysOf lists table R's keys in order, "" when the table is absent.
func keysOf(db *relstore.Database) string {
	tb, ok := db.Table("R")
	if !ok {
		return ""
	}
	var keys []string
	for _, row := range tb.SortedRows() {
		keys = append(keys, fmt.Sprint(row[0]))
	}
	return strings.Join(keys, ",")
}

func reopenKeys(t *testing.T, dir string) string {
	t.Helper()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	return keysOf(s.DB())
}

// TestSegmentLifecycle drives a store through several checkpoints and
// checks the directory it keeps: one checkpoint, the live log and the
// next log in place at the pre-written size — the retired log, renamed.
func TestSegmentLifecycle(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{CheckpointEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	db := s.DB()
	db.CreateTable(keyedSchema("R"))
	var retired os.FileInfo
	var retiredGen uint64
	for i := 0; i < 60; i++ {
		commitRows(db, i, i+1)
		quiesce(s)
		live, err := os.Stat(logPath(dir, s.gen))
		if err != nil {
			t.Fatal(err)
		}
		if did, err := s.MaybeCheckpoint(); err != nil {
			t.Fatal(err)
		} else if did {
			retired, retiredGen = live, s.gen-1
		}
	}
	quiesce(s)
	gen := s.gen
	if gen < 3 {
		t.Fatalf("only %d checkpoints over 61 batches at cadence 8", gen)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	want := fmt.Sprintf("ckpt-%d.ckpt wal-%d.log wal-%d.log", gen, gen, gen+1)
	if got := strings.Join(names, " "); got != want {
		t.Fatalf("directory holds %q, want %q", got, want)
	}
	next, err := os.Stat(logPath(dir, gen+1))
	if err != nil || next.Size() != segSize {
		t.Fatalf("next segment: %v, %d bytes, want %d", err, next.Size(), segSize)
	}
	if retiredGen+2 != gen+1 || !os.SameFile(retired, next) {
		t.Fatalf("wal-%d.log is not the recycled wal-%d.log", gen+1, retiredGen)
	}
	if st := s.Stats(); st.SegmentGrows > 10 {
		t.Fatalf("%d appends grew their segment; only the first generation's may", st.SegmentGrows)
	}
	wantSig, pending := signature(db), s.Pending()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := signature(s2.DB()); got != wantSig {
		t.Fatalf("recovered database differs\ngot:\n%s\nwant:\n%s", got, wantSig)
	}
	if s2.Replayed() != pending || s2.Pending() != pending {
		t.Fatalf("replayed %d, pending %d, want the %d batches since the last checkpoint", s2.Replayed(), s2.Pending(), pending)
	}
}

// TestRecycledSegmentContents checks what recovery makes of a recycled
// segment's old frames: a complete valid log of the generation that
// used the file before is an empty log of this one, and after a torn
// tail an intact old frame of exactly the torn frame's length, at
// exactly the next offset, is not a commit — not at recovery and not
// after the resumed log wrote a frame of that length over the tear.
func TestRecycledSegmentContents(t *testing.T) {
	// One-row inserts with two-digit keys and epochs encode to the same
	// length, so both generations' frames start at the same offsets.
	stale := logFile(7, createBatch(10), insertBatch(11, 11), insertBatch(12, 12), insertBatch(13, 13), insertBatch(14, 14))

	dir := t.TempDir()
	if err := os.WriteFile(logPath(dir, 0), stale, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := reopenKeys(t, dir); got != "" {
		t.Fatalf("frames of generation 7 replayed as generation 0: keys %q", got)
	}

	fresh := logFile(0, createBatch(20), insertBatch(21, 21), insertBatch(22, 22))
	if len(fresh) >= len(stale) || len(insertBatch(22, 22)) != len(insertBatch(13, 13)) {
		t.Fatal("test frames are not aligned")
	}
	img := append(append([]byte(nil), fresh...), stale[len(fresh):]...)
	tornAt := len(fresh) - len(insertBatch(22, 22)) + 1
	copy(img[tornAt:len(fresh)], stale[tornAt:len(fresh)]) // the write of key 22 tore: past its header the old frame's bytes remain
	dir = t.TempDir()
	if err := os.WriteFile(logPath(dir, 0), img, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := keysOf(s.DB()); got != "21" {
		t.Fatalf("recovered keys %q, want 21 (22 torn, 13 and 14 stale)", got)
	}
	commitRows(s.DB(), 22, 23)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := reopenKeys(t, dir); got != "21,22" {
		t.Fatalf("after resuming over the torn frame: keys %q, want 21,22", got)
	}
}

// TestSameGenerationLeftovers is the case the salt frame exists for:
// frames this generation wrote after a frame that then tore (possible
// with SyncEvery > 1) must stay dead even when the recovered store
// commits the very same batch again.
func TestSameGenerationLeftovers(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SyncEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	s.DB().CreateTable(keyedSchema("R"))
	commitRows(s.DB(), 1, 2)
	tornAt := s.seg.off
	commitRows(s.DB(), 2, 4)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(logPath(dir, 0), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xff}, tornAt+frameHdr+1); err != nil { // key 2's frame tore, key 3's is whole
		t.Fatal(err)
	}
	f.Close()
	s, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := keysOf(s.DB()); got != "1" {
		t.Fatalf("recovered keys %q, want 1", got)
	}
	commitRows(s.DB(), 2, 3) // same epoch, same row: the same bytes as the torn frame held
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := reopenKeys(t, dir); got != "1,2" {
		t.Fatalf("keys %q, want 1,2: the frame of key 3 outlived the recovery that dropped it", got)
	}
}

// TestBatchLargerThanSegment commits a batch that does not fit the
// pre-written segment: it is written past the end by the same writer,
// recovery reads it back, and the overgrown file is not recycled.
func TestBatchLargerThanSegment(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	db := s.DB()
	r, _ := db.CreateTable(keyedSchema("R"))
	if err := s.Checkpoint(); err != nil { // the pre-written wal-1.log goes live
		t.Fatal(err)
	}
	grows := s.Stats().SegmentGrows
	commitRows(db, 0, 3)
	if got := s.Stats().SegmentGrows; got != grows {
		t.Fatalf("small commits grew the pre-written segment (%d -> %d)", grows, got)
	}
	big := strings.Repeat("v", 64<<10)
	db.BeginBatch()
	for i := 100; i < 100+segSize/len(big)+2; i++ {
		r.Insert(model.Tuple{int64(i), big})
	}
	db.EndBatch()
	commitRows(db, 3, 6)
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().SegmentGrows; got != grows+4 {
		t.Fatalf("segment grows %d -> %d, want the big batch and the three after it", grows, got)
	}
	if st, err := os.Stat(logPath(dir, 1)); err != nil || st.Size() <= segSize {
		t.Fatalf("live segment: %v, %d bytes, want more than %d", err, st.Size(), segSize)
	}
	want := signature(db)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := signature(s.DB()); got != want {
		t.Fatal("recovered database differs after an oversized batch")
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(logPath(dir, 1)); !os.IsNotExist(err) {
		t.Fatalf("overgrown wal-1.log survived its retirement: %v", err)
	}
	if st, err := os.Stat(logPath(dir, 3)); err != nil || st.Size() != segSize {
		t.Fatalf("next segment after retiring an overgrown one: %v, %d bytes", err, st.Size())
	}
}

// TestFailStop closes the live segment's file underneath the store: the
// commit that hits it latches the error, nothing is appended after it,
// checkpoints refuse, and a reopen recovers exactly the commits from
// before the failure.
func TestFailStop(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{CheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	db := s.DB()
	db.CreateTable(keyedSchema("R"))
	commitRows(db, 0, 3)
	want := signature(db)
	quiesce(s)
	s.seg.f.Close()
	commitRows(db, 3, 4)
	if s.Err() == nil {
		t.Fatal("append to a closed file did not latch an error")
	}
	frames := s.Stats().Frames
	commitRows(db, 4, 6)
	if got := s.Stats().Frames; got != frames {
		t.Fatalf("%d frames appended after the store failed", got-frames)
	}
	if did, err := s.MaybeCheckpoint(); did || err == nil {
		t.Fatalf("MaybeCheckpoint on a failed store: did=%v err=%v", did, err)
	}
	if err := s.Checkpoint(); err == nil {
		t.Fatal("Checkpoint on a failed store succeeded")
	}
	if err := s.Close(); err == nil {
		t.Fatal("Close did not report the failure")
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := signature(s2.DB()); got != want {
		t.Fatalf("recovered database differs\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestCheckpointFailureLatches makes the background checkpoint fail
// (its temporary file's name is taken by a directory).
func TestCheckpointFailureLatches(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.DB().CreateTable(keyedSchema("R"))
	quiesce(s)
	if err := os.MkdirAll(ckptPath(dir, 1)+".tmp/x", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err == nil {
		t.Fatal("checkpoint over an unwritable temporary succeeded")
	}
	if s.Err() == nil {
		t.Fatal("failed background checkpoint did not latch")
	}
	frames := s.Stats().Frames
	commitRows(s.DB(), 0, 1)
	if got := s.Stats().Frames; got != frames {
		t.Fatal("a frame was appended after the checkpoint failure")
	}
}

// TestOldFormatRejected opens a directory whose log has the previous
// release's framing (length, CRC-32C of the payload, no file header).
func TestOldFormatRejected(t *testing.T) {
	dir := t.TempDir()
	old, _ := appendFrame(nil, 0, uint32(len(createBatch(2))), createBatch(2))
	if err := os.WriteFile(logPath(dir, 0), old, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrOldFormat) {
		t.Fatalf("Open of an old-format log: %v, want ErrOldFormat", err)
	}
}

// TestWriterThroughBackgroundCheckpoints commits through several
// background checkpoints while another goroutine reads the store's
// counters (run under -race), then checks the reopened state.
func TestWriterThroughBackgroundCheckpoints(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{CheckpointEvery: 16, Retain: 8})
	if err != nil {
		t.Fatal(err)
	}
	db := s.DB()
	db.CreateTable(keyedSchema("R"))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if st := s.Stats(); st.CheckpointsLanded > st.CheckpointsStarted || s.Err() != nil || s.Pending() < 0 {
					t.Errorf("inconsistent store: %+v err=%v", st, s.Err())
					return
				}
			}
		}
	}()
	r := db.MustTable("R")
	for i := 0; s.Stats().CheckpointsLanded < 4 || i < 300; i++ {
		db.BeginBatch()
		r.Delete([]model.Datum{int64(i % 7)})
		r.Insert(model.Tuple{int64(i % 7), fmt.Sprintf("g%d", i)})
		r.Insert(model.Tuple{int64(1000 + i), "x"})
		db.EndBatch()
		if _, err := s.MaybeCheckpoint(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	epoch, floor := db.Epoch(), db.RetentionFloor()
	want, wantOld := signature(db), asOfSignature(t, db, floor)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{Retain: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := signature(s2.DB()); got != want {
		t.Fatal("recovered database differs")
	}
	if got := s2.DB().Epoch(); got != epoch {
		t.Fatalf("recovered epoch %d, want %d", got, epoch)
	}
	if got := asOfSignature(t, s2.DB(), floor); got != wantOld {
		t.Fatalf("history at the floor differs after restart:\ngot:  %s\nwant: %s", got, wantOld)
	}
	if s2.Replayed() >= 300 {
		t.Fatalf("replayed %d batches despite the checkpoints", s2.Replayed())
	}
}
