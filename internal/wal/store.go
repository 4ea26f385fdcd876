package wal

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/model"
	"repro/internal/relstore"
)

// Options tunes a durable store.
type Options struct {
	// SyncEvery is the fsync cadence in committed batches; <= 1 syncs
	// every commit (full durability), larger values trade the tail of
	// the log for throughput.
	SyncEvery int
	// CheckpointEvery, when > 0, is the batch count at which
	// MaybeCheckpoint starts a checkpoint.
	CheckpointEvery int
	// Retain is the time-travel retention depth in epochs applied to
	// the recovered database (relstore.RetainAll = unbounded, 0 = off).
	// With retention on, checkpoints carry the retained version history
	// and recovery replays batches at their original epochs, so
	// SnapshotAt answers the same epochs after a restart as before it.
	Retain uint64
}

// Store binds a relstore.Database to an on-disk generation: every
// committed batch is appended to the live log segment via the
// database's commit hook, and a checkpoint moves appends to the next
// segment while a background goroutine writes the snapshot. Open
// recovers the database from the newest checkpoint plus the logs of
// its generation and later.
//
// The zero value is not usable; construct with Open.
type Store struct {
	dir  string
	opts Options
	db   *relstore.Database

	mu        sync.Mutex
	seg       *segment // live log, generation gen
	next      *segment // wal-(gen+1).log, in place and empty; nil while busy
	gen       uint64
	pending   int    // batches logged since the last checkpoint started
	lastEpoch uint64 // newest epoch Open found on disk
	replayed  int    // batches replayed by Open (stats)
	encBuf    []byte
	// err is the first failed append, sync or background checkpoint.
	// Once set nothing more is appended: the log ends at the last batch
	// known to be whole.
	err error
	// busy is set while the background goroutine runs (at most one at a
	// time): writing a checkpoint and then, or after Open only, putting
	// the next segment in place. idle is signalled when it finishes.
	busy bool
	idle *sync.Cond

	stats counters
}

// counters is what the store has done since Open.
type counters struct {
	frames, payloadBytes    atomic.Int64
	syncs, syncNS           atomic.Int64
	grows                   atomic.Int64
	ckptStarted, ckptLanded atomic.Int64
	lastCkptNS, lastCkptLen atomic.Int64
}

// Stats is a copy of the store's counters since Open.
type Stats struct {
	// Frames and PayloadBytes count the batches appended to the log.
	Frames       int64 `json:"frames"`
	PayloadBytes int64 `json:"payload_bytes"`
	// Syncs counts fsyncs of a log segment, SyncNS their total duration.
	Syncs  int64 `json:"syncs"`
	SyncNS int64 `json:"sync_ns"`
	// SegmentGrows counts appends that ended past the pre-written part
	// of their segment (every append to a new directory's first one).
	SegmentGrows int64 `json:"segment_grows"`
	// A checkpoint has started once appends moved to the next segment,
	// has landed once its file is renamed into place, and is in flight
	// in between.
	CheckpointsStarted int64 `json:"checkpoints_started"`
	CheckpointsLanded  int64 `json:"checkpoints_landed"`
	CheckpointInFlight bool  `json:"checkpoint_in_flight"`
	// LastCheckpointNS is the newest landed checkpoint's duration from
	// start to landing, LastCheckpointBytes its file size.
	LastCheckpointNS    int64 `json:"last_checkpoint_ns"`
	LastCheckpointBytes int64 `json:"last_checkpoint_bytes"`
}

// Stats returns the store's counters.
func (s *Store) Stats() Stats {
	c := &s.stats
	st := Stats{
		Frames: c.frames.Load(), PayloadBytes: c.payloadBytes.Load(),
		Syncs: c.syncs.Load(), SyncNS: c.syncNS.Load(),
		SegmentGrows: c.grows.Load(),
		// Landed before started: a checkpoint starting in between must
		// not read as more landed than started.
		CheckpointsLanded: c.ckptLanded.Load(), CheckpointsStarted: c.ckptStarted.Load(),
		LastCheckpointNS: c.lastCkptNS.Load(), LastCheckpointBytes: c.lastCkptLen.Load(),
	}
	st.CheckpointInFlight = st.CheckpointsStarted > st.CheckpointsLanded
	return st
}

func ckptPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("ckpt-%d.ckpt", gen))
}

func logPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%d.log", gen))
}

// parseGen extracts the generation from a file name of the given shape.
func parseGen(name, prefix, suffix string) (uint64, bool) {
	mid, ok := strings.CutPrefix(name, prefix)
	if !ok {
		return 0, false
	}
	if mid, ok = strings.CutSuffix(mid, suffix); !ok {
		return 0, false
	}
	g, err := strconv.ParseUint(mid, 10, 64)
	return g, err == nil
}

// scan lists the generations of the log files in dir, ascending, and
// the newest checkpoint generation.
func scan(dir string) (logs []uint64, ckptGen uint64, hasCkpt bool, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0, false, err
	}
	for _, e := range ents {
		if g, ok := parseGen(e.Name(), "ckpt-", ".ckpt"); ok {
			if !hasCkpt || g > ckptGen {
				ckptGen, hasCkpt = g, true
			}
		} else if g, ok := parseGen(e.Name(), "wal-", ".log"); ok {
			logs = append(logs, g)
		}
	}
	sort.Slice(logs, func(i, j int) bool { return logs[i] < logs[j] })
	return logs, ckptGen, hasCkpt, nil
}

// Open recovers (or initialises) a durable database in dir: it loads
// the newest checkpoint c if one exists, replays every log of
// generation >= c in order (skipping batches the checkpoint covers),
// fast-forwards the epoch counter past everything on disk, resumes the
// newest log that holds frames behind a salt frame, and installs the
// commit hook so subsequent batches are logged. The returned store
// owns the database's commit hook; install any observers before
// writing.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// Recovery is one allocation burst in which nearly everything
	// allocated stays live (the instance itself), so concurrent GC
	// cycles and mark assists only re-scan a growing live set to
	// reclaim almost nothing. Defer collection until the load is done;
	// peak heap is bounded by the instance plus the largest table's
	// decode buffer. The previous policy is restored on every path out.
	gcPct := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gcPct)
	logs, ckptGen, hasCkpt, err := scan(dir)
	if err != nil {
		return nil, err
	}
	s := &Store{dir: dir, opts: opts, db: relstore.NewDatabase()}
	s.idle = sync.NewCond(&s.mu)
	var ckptEpoch, ckptFloor uint64
	if hasCkpt {
		if ckptEpoch, ckptFloor, err = s.loadCheckpoint(ckptPath(dir, ckptGen)); err != nil {
			return nil, err
		}
	}
	s.lastEpoch = ckptEpoch
	// Retention is configured before the log replays so the replayed
	// history is retained as it lands; the floor recorded at the cut
	// rewinds past the checkpoint epoch when the file carries older
	// retained versions.
	s.db.FastForward(ckptEpoch)
	if opts.Retain != 0 {
		s.db.SetRetention(opts.Retain)
		if ckptFloor > 0 {
			s.db.RestoreHistoryFloor(ckptFloor)
		}
	}
	// The live log is the newest one holding frames: a log past it is
	// the next segment, put in place before its generation began.
	live, liveExists := ckptGen, false
	end, sum := int64(len(segMagic)), logSeed(live)
	for _, g := range logs {
		if g < ckptGen {
			continue
		}
		e, c, frames, err := s.replayLog(g, ckptEpoch)
		if err != nil {
			return nil, err
		}
		if frames > 0 || g == ckptGen {
			live, liveExists, end, sum = g, true, e, c
		}
	}
	s.db.FastForward(s.lastEpoch)
	if !liveExists {
		if err := createSegment(dir, live, 0); err != nil {
			return nil, err
		}
		if err := syncDir(dir); err != nil {
			return nil, err
		}
	}
	if s.seg, err = openSegment(logPath(dir, live), end, sum, opts.SyncEvery, &s.stats); err != nil {
		return nil, err
	}
	var nonce [8]byte
	binary.LittleEndian.PutUint64(nonce[:], uint64(time.Now().UnixNano()))
	if err := s.seg.write(saltFlag|uint32(len(nonce)), nonce[:]); err != nil {
		s.seg.f.Close()
		return nil, err
	}
	s.gen, s.pending = live, s.replayed
	s.busy = true
	go s.background(nil, ckptGen, live)
	s.db.SetCommitHook(s.onCommit)
	return s, nil
}

// loadCheckpoint applies a checkpoint file to the (empty) database and
// returns the epoch it snapshots. The trailer record is required: a
// file missing it is an incomplete write and rejected (the atomic
// rename protocol should make that impossible, but the reader does not
// rely on it).
//
// Table records decode and load concurrently: tables are independent
// (distinct names, one record each, same birth epoch under the open
// batch), so while the reader streams frames off disk, a worker pool
// turns them into loaded tables. The checkpoint load is the restart
// path's largest term — unlike the fixpoint a cold start pays, it
// parallelizes trivially. The pool earns its place on 2 vCPUs: a
// serial decode made the 10-peer restart of `proqlbench -exp=recover`
// 1.47× slower (median 99 → 145 ms, slower by ≥ 10 % in 10 of 10
// alternating pairs; EXPERIMENTS.md E28).
func (s *Store) loadCheckpoint(path string) (uint64, uint64, error) {
	var (
		epoch      uint64
		floor      uint64
		ndict      uint64
		ntables    uint64
		dict       []model.Tuple
		dictFilled uint64
		seen       uint64
		state      int // 0 = header, 1 = dict frames, 2 = tables, 3 = done
	)
	nw := runtime.GOMAXPROCS(0)
	if nw > 8 {
		nw = 8
	}
	var wg sync.WaitGroup
	var loadMu sync.Mutex
	var loadErr error
	fail := func(err error) {
		loadMu.Lock()
		if loadErr == nil {
			loadErr = err
		}
		loadMu.Unlock()
	}
	firstErr := func() error {
		loadMu.Lock()
		defer loadMu.Unlock()
		return loadErr
	}
	spawn := func(work func(payload []byte)) chan<- []byte {
		jobs := make(chan []byte, nw)
		for w := 0; w < nw; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for payload := range jobs {
					work(payload)
				}
			}()
		}
		return jobs
	}
	var jobs chan<- []byte
	drain := func() error {
		if jobs != nil {
			close(jobs)
			wg.Wait()
			jobs = nil
		}
		return firstErr()
	}
	defer drain()

	// Dictionary frames decode into disjoint ranges of the shared dict
	// slice (coverage is validated sequentially by the reader below);
	// table records resolve their references only after every
	// dictionary worker has finished.
	decodeDict := func(payload []byte) {
		if err := decodeCkptDictFrame(payload, dict); err != nil {
			fail(err)
		}
	}
	loadTable := func(payload []byte) {
		ct, err := decodeCkptTable(payload, dict)
		if err != nil {
			fail(err)
			return
		}
		t, err := s.db.CreateTable(ct.schema)
		if err != nil {
			fail(err)
			return
		}
		if _, err := t.LoadVersions(ct.vers); err != nil {
			fail(err)
		}
	}

	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, 0, err
	}
	_, _, _, err = readFrames(f, 0, false, func(payload []byte) error {
		switch state {
		case 0:
			_, e, fl, nd, nt, err := decodeCkptHeader(payload)
			if err != nil {
				return err
			}
			// Every dictionary row costs at least one encoded byte, so a
			// header demanding more rows than the file holds bytes is
			// corrupt — checked before allocating the dictionary.
			if nd > uint64(fi.Size()) {
				return fmt.Errorf("wal: dictionary size %d exceeds checkpoint file", nd)
			}
			epoch, floor, ndict, ntables = e, fl, nd, nt
			dict = make([]model.Tuple, ndict)
			state = 1
			if ndict > 0 {
				jobs = spawn(decodeDict)
			}
			return nil
		case 1:
			if dictFilled < ndict {
				start, nrows, err := peekCkptDictFrame(payload)
				if err != nil {
					return err
				}
				if start != dictFilled || nrows == 0 || nrows > ndict-start {
					return fmt.Errorf("wal: dictionary frame covers %d+%d, want next row %d of %d", start, nrows, dictFilled, ndict)
				}
				dictFilled += nrows
				// The frame buffer is reused by the reader; hand the
				// workers their own copy.
				jobs <- append([]byte(nil), payload...)
				return nil
			}
			// Dictionary complete: barrier before any reference resolves.
			if err := drain(); err != nil {
				return err
			}
			state = 2
			if ntables > 0 {
				jobs = spawn(loadTable)
			}
			fallthrough
		case 2:
			if seen == ntables {
				if string(payload) != ckptTrailer {
					return fmt.Errorf("wal: bad checkpoint trailer in %s", path)
				}
				state = 3
				return nil
			}
			jobs <- append([]byte(nil), payload...)
			seen++
			return nil
		default:
			return fmt.Errorf("wal: record after checkpoint trailer in %s", path)
		}
	})
	if derr := drain(); err == nil {
		err = derr
	}
	if err != nil {
		return 0, 0, err
	}
	if state != 3 {
		return 0, 0, fmt.Errorf("wal: incomplete checkpoint %s (%d/%d dictionary rows, %d/%d tables, no trailer)", path, dictFilled, ndict, seen, ntables)
	}
	return epoch, floor, nil
}

// replayLog applies generation gen's log to the database in commit
// order, skipping batches already covered by the checkpoint (a batch
// that published while the checkpoint was being cut appears in both).
// It returns where the valid frames end, the checksum the next frame
// must continue and how many frames were valid.
func (s *Store) replayLog(gen, ckptEpoch uint64) (end int64, sum uint32, frames int, err error) {
	path := logPath(s.dir, gen)
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, 0, err
	}
	defer f.Close()
	var magic [len(segMagic)]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil || string(magic[:]) != segMagic {
		return 0, 0, 0, fmt.Errorf("%w: %s", ErrOldFormat, path)
	}
	end, sum, frames, err = readFrames(f, logSeed(gen), true, func(payload []byte) error {
		b, err := DecodeBatch(payload)
		if err != nil {
			return fmt.Errorf("wal: corrupt batch in %s: %w", path, err)
		}
		if b.Epoch > s.lastEpoch {
			s.lastEpoch = b.Epoch
		}
		if b.Epoch <= ckptEpoch {
			return nil
		}
		s.replayed++
		return s.applyBatch(b)
	})
	return int64(len(segMagic)) + end, sum, frames, err
}

// applyBatch replays one logged batch against the database. The epoch
// counter is fast-forwarded to just below the batch's original epoch
// first, so writes stamp (and the batch publishes at) exactly the
// epoch they committed under before the restart — epoch gaps and all.
// Retained history therefore lines up: SnapshotAt(e) after recovery
// reads the same cut as before it.
func (s *Store) applyBatch(b Batch) error {
	if b.Epoch > 0 {
		s.db.FastForward(b.Epoch - 1)
	}
	s.db.BeginBatch()
	defer s.db.EndBatch()
	for _, op := range b.Ops {
		switch op.Kind {
		case relstore.OpInsert:
			t, ok := s.db.Table(op.Table)
			if !ok {
				return fmt.Errorf("wal: insert into unknown table %q", op.Table)
			}
			if _, err := t.Insert(op.Row); err != nil {
				return err
			}
		case relstore.OpDeleteKey:
			t, ok := s.db.Table(op.Table)
			if !ok {
				return fmt.Errorf("wal: delete from unknown table %q", op.Table)
			}
			if _, err := t.DeleteEncoded(op.Key); err != nil {
				return err
			}
		case relstore.OpDeleteRow:
			t, ok := s.db.Table(op.Table)
			if !ok {
				return fmt.Errorf("wal: delete from unknown table %q", op.Table)
			}
			// One logged delete removes one matching row (multiset
			// semantics on keyless tables).
			done := false
			t.DeleteWhere(func(row model.Tuple) bool {
				if done || model.EncodeDatums(row) != op.Key {
					return false
				}
				done = true
				return true
			})
		case relstore.OpCreateTable:
			// Re-creating an existing name replays a drop+create pair
			// whose drop predates the checkpoint.
			s.db.DropTable(op.Table)
			if _, err := s.db.CreateTable(op.Schema); err != nil {
				return err
			}
		case relstore.OpDropTable:
			s.db.DropTable(op.Table)
		default:
			return fmt.Errorf("wal: unknown op kind %d", op.Kind)
		}
	}
	return nil
}

// onCommit is the database's commit hook: it appends the batch to the
// live segment. The hook cannot return an error, so a failure latches
// into s.err and the store stops appending; callers see it on Err,
// MaybeCheckpoint, Checkpoint and Close.
func (s *Store) onCommit(epoch uint64, ops []relstore.LoggedOp) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	s.encBuf = AppendBatch(s.encBuf[:0], epoch, ops)
	if len(s.encBuf) > maxRecord {
		s.err = fmt.Errorf("wal: batch of %d bytes exceeds the %d-byte record limit", len(s.encBuf), maxRecord)
		return
	}
	if s.err = s.seg.append(s.encBuf); s.err != nil {
		return
	}
	s.stats.frames.Add(1)
	s.stats.payloadBytes.Add(int64(len(s.encBuf)))
	s.pending++
}

// DB returns the recovered database. The store owns its commit hook.
func (s *Store) DB() *relstore.Database { return s.db }

// Dir returns the data directory.
func (s *Store) Dir() string { return s.dir }

// Pending returns the number of batches in the log that no started
// checkpoint covers (after Open, the batches it replayed).
func (s *Store) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pending
}

// Replayed returns how many batches Open replayed from the logs.
func (s *Store) Replayed() int { return s.replayed }

// Err returns the failure that stopped the store, if any: a committed
// batch that could not be appended or synced, or a checkpoint that
// could not be written. Batches committed since are not on disk.
func (s *Store) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// ckptJob is what a started checkpoint hands the background goroutine.
type ckptJob struct {
	snap  *relstore.Database // pinned at the switch
	floor uint64             // retention floor at the switch
	gen   uint64             // the generation appends moved to
	old   *segment           // the log they left
}

// startCheckpoint moves appends to the next segment and starts the
// background goroutine that writes the checkpoint. Called with mu held,
// the store idle and without error (so next is in place). Every frame
// in the log left behind was published, hence is visible to the
// snapshot pinned here; a batch published but not yet logged lands in
// the new segment and is skipped on replay.
func (s *Store) startCheckpoint() error {
	if s.err = s.seg.sync(); s.err != nil {
		return s.err
	}
	j := &ckptJob{snap: s.db.Snapshot(), floor: s.db.RetentionFloor(), gen: s.gen + 1, old: s.seg}
	s.seg, s.next = s.next, nil
	s.gen = j.gen
	s.pending = 0
	s.busy = true
	s.stats.ckptStarted.Add(1)
	go s.background(j, j.gen, j.gen)
	return nil
}

// background writes ckpt-<j.gen> from the job's snapshot (no job after
// Open), then removes what checkpoint ckptGen made obsolete and puts
// the segment after the live one in place. It takes mu only to publish
// the outcome.
func (s *Store) background(j *ckptJob, ckptGen, live uint64) {
	var err error
	if j != nil {
		t0 := time.Now()
		var n int64
		n, err = writeCheckpoint(s.dir, j.gen, j.snap, j.floor)
		j.snap.Close()
		if cerr := j.old.close(); err == nil {
			err = cerr
		}
		if err == nil {
			s.stats.lastCkptNS.Store(int64(time.Since(t0)))
			s.stats.lastCkptLen.Store(n)
			s.stats.ckptLanded.Add(1)
		}
	}
	var next *segment
	if err == nil {
		next, err = s.prepareNext(ckptGen, live)
	}
	s.mu.Lock()
	s.next, s.busy = next, false
	if err != nil && s.err == nil {
		s.err = err
	}
	s.idle.Broadcast()
	s.mu.Unlock()
}

// prepareNext removes the files checkpoint ckptGen made obsolete —
// older checkpoints and logs, abandoned temporaries — and leaves
// wal-(live+1).log in place, pre-written and empty: a retired log of
// the standard size is renamed to it, its old frames failing the new
// generation's chain; otherwise a new file is zero-filled. Removals are
// best-effort, recovery ignores what they would have removed.
func (s *Store) prepareNext(ckptGen, live uint64) (*segment, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	next, have := live+1, false
	var retired []string
	for _, e := range ents {
		path := filepath.Join(s.dir, e.Name())
		if filepath.Ext(path) == ".tmp" {
			os.Remove(path)
		} else if g, ok := parseGen(e.Name(), "ckpt-", ".ckpt"); ok && g < ckptGen {
			os.Remove(path)
		} else if g, ok := parseGen(e.Name(), "wal-", ".log"); ok {
			switch {
			case g < ckptGen:
				retired = append(retired, path)
			case g == next:
				have = true
			case g > next:
				os.Remove(path)
			}
		}
	}
	for _, path := range retired {
		if st, err := os.Stat(path); !have && err == nil && st.Size() == segSize {
			have = os.Rename(path, logPath(s.dir, next)) == nil
		} else {
			os.Remove(path)
		}
	}
	if !have {
		if err := createSegment(s.dir, next, segSize); err != nil {
			return nil, err
		}
	}
	if err := syncDir(s.dir); err != nil {
		return nil, err
	}
	return openSegment(logPath(s.dir, next), int64(len(segMagic)), logSeed(next), s.opts.SyncEvery, &s.stats)
}

// writeCheckpoint writes the snapshot to ckpt-<gen>.tmp, syncs it and
// renames it into place — the commit point: from then on recovery
// starts from it and ignores every log below gen. It returns the
// file's size.
func writeCheckpoint(dir string, gen uint64, snap *relstore.Database, floor uint64) (int64, error) {
	names := snap.TableNames()
	sort.Strings(names)
	vers := make([][]relstore.Version, len(names))
	for i, name := range names {
		vers[i] = snap.MustTable(name).Versions(floor)
	}
	// Writers kept committing while the versions were read, and each
	// sweep since the switch reclaimed history below its own, later
	// floor. What is complete in vers is the history from the floor as
	// it stands now: record that one and drop what died at or below it.
	if f := snap.RetentionFloor(); f > floor {
		floor = f
	}

	// Pass 1: build the row dictionary and each table's reference
	// stream. Distinct rows append to the current dictionary frame;
	// duplicates (the same tuple stored in many tables — public and
	// provenance copies at every propagation hop) cost one reference.
	// Transient memory is bounded by the distinct row content plus one
	// word per row, a fraction of the instance it snapshots.
	dictIdx := make(map[string]uint64)
	var dictFrames [][]byte
	var cur []byte
	var curStart, curRows uint64
	finishFrame := func() {
		if curRows == 0 {
			return
		}
		frame := make([]byte, 0, len(cur)+binary.MaxVarintLen64*2+1)
		frame = append(frame, ckptRecDict)
		frame = appendUvarint(frame, curStart)
		frame = appendUvarint(frame, curRows)
		dictFrames = append(dictFrames, append(frame, cur...))
		curStart += curRows
		curRows = 0
		cur = cur[:0]
	}
	refs := make([][]uint64, len(names))
	var scratch []byte
	for i := range names {
		vs := vers[i][:0]
		for _, v := range vers[i] {
			if v.Died == 0 || v.Died > floor {
				vs = append(vs, v)
			}
		}
		vers[i] = vs
		r := make([]uint64, len(vs))
		for j := range vs {
			scratch = appendBinDatums(scratch[:0], vs[j].Row)
			id, ok := dictIdx[string(scratch)]
			if !ok {
				id = uint64(len(dictIdx))
				dictIdx[string(scratch)] = id
				cur = append(cur, scratch...)
				curRows++
				if len(cur) >= ckptDictFrameTarget {
					finishFrame()
				}
			}
			r[j] = id
		}
		refs[i] = r
	}
	finishFrame()

	tmp := ckptPath(dir, gen) + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return 0, err
	}
	var size int64
	var buf []byte
	write := func(payload []byte) {
		if err != nil {
			return
		}
		buf, _ = appendFrame(buf[:0], 0, uint32(len(payload)), payload)
		size += int64(len(buf))
		_, err = f.Write(buf)
	}
	var rec []byte
	rec = appendCkptHeader(rec[:0], gen, snap.Epoch(), floor, len(dictIdx), len(names))
	write(rec)
	for _, frame := range dictFrames {
		write(frame)
	}
	for i, name := range names {
		rec = appendCkptTable(rec[:0], name, snap.MustTable(name).Schema, refs[i], vers[i])
		write(rec)
	}
	write([]byte(ckptTrailer))
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, ckptPath(dir, gen))
	}
	if err != nil {
		os.Remove(tmp)
		return 0, err
	}
	return size, syncDir(dir)
}

// waitIdle blocks until the background goroutine has finished. Called
// with mu held.
func (s *Store) waitIdle() {
	for s.busy {
		s.idle.Wait()
	}
}

// Checkpoint writes a full snapshot of the database and rotates the
// log, synchronously: it waits for a checkpoint in flight, starts one
// and returns once that one has landed, the generation before it is
// retired and the next segment is in place. Commits made meanwhile are
// not held up; they land in the new generation's log.
func (s *Store) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.waitIdle()
	if s.err != nil {
		return s.err
	}
	if err := s.startCheckpoint(); err != nil {
		return err
	}
	s.waitIdle()
	return s.err
}

// MaybeCheckpoint starts a checkpoint when the pending batch count has
// reached Options.CheckpointEvery and none is in flight; it reports
// whether it did. It returns as soon as appends have moved to the next
// segment; the snapshot is written in the background.
func (s *Store) MaybeCheckpoint() (bool, error) {
	if s.opts.CheckpointEvery <= 0 {
		return false, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil || s.busy || s.pending < s.opts.CheckpointEvery {
		return false, s.err
	}
	return true, s.startCheckpoint()
}

// Close waits for a checkpoint in flight, then syncs and closes the
// log. The database stays usable in memory, but further commits are
// not logged.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.waitIdle()
	s.db.SetCommitHook(nil)
	err := s.seg.close()
	if s.next != nil {
		s.next.f.Close()
	}
	if s.err != nil {
		err = s.err
	}
	return err
}
