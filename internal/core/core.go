// Package core is the library facade tying the provenance system
// together: schema and mapping declaration, local-data insertion,
// update exchange with provenance recording, ProQL querying (graph
// projection and semiring annotation computation), durability, and
// provenance-graph export. Section 5's access support relations are
// not part of it: internal/asr is a library the experiments drive
// directly.
//
// A typical session (see examples/quickstart):
//
//	sys, _ := core.Open(schema, core.Options{})
//	sys.Insert("A", rows...)
//	res, _ := sys.Query(`EVALUATE TRUST OF { FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x }`)
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/asr"
	"repro/internal/exchange"
	"repro/internal/model"
	"repro/internal/proql"
	"repro/internal/provgraph"
	"repro/internal/wal"
)

// System is one CDSS replica with query support.
//
// Concurrency: queries (Query, and the engine's Exec* family) may run
// from any number of goroutines, including while a mutation commits —
// each query reads a pinned storage snapshot, so it observes either
// the whole commit or none of it, and no query holds up a mutation. Mutations (Insert,
// Delete, InsertLocal, Run, DeleteLocal, Checkpoint, Close) are
// serialized by an internal writer lock: callers may issue them from
// multiple goroutines, but they execute one at a time.
type System struct {
	ex     *exchange.System
	engine *proql.Engine
	// store is the durability layer of a system created by OpenDurable;
	// nil for purely in-memory systems.
	store *wal.Store

	// wmu serializes mutations. Single-logical-writer keeps the epoch
	// protocol simple: every commit is one batch.
	wmu sync.Mutex
	// wmuWaitNS and wmuHoldNS total the time mutations spent waiting for
	// wmu and holding it.
	wmuWaitNS, wmuHoldNS atomic.Int64
}

// ErrDurabilityLost is returned (wrapped around the cause) by a
// mutation of a durable system whose commit could not be written to the
// log, and by every mutation after it: the in-memory state is ahead of
// the disk, so the system refuses further writes rather than
// acknowledge what a restart would lose. Queries keep working.
var ErrDurabilityLost = errors.New("core: durability lost")

// lockWrite takes the writer lock for a mutation, refusing it when the
// durable store has failed. The caller passes the returned time to
// unlockWrite.
func (s *System) lockWrite() (locked time.Time, err error) {
	t0 := time.Now()
	s.wmu.Lock()
	locked = time.Now()
	s.wmuWaitNS.Add(int64(locked.Sub(t0)))
	if err := s.durable(); err != nil {
		s.unlockWrite(locked)
		return locked, err
	}
	return locked, nil
}

func (s *System) unlockWrite(locked time.Time) {
	s.wmuHoldNS.Add(int64(time.Since(locked)))
	s.wmu.Unlock()
}

// durable reports whether everything committed so far reached the log.
func (s *System) durable() error {
	if s.store == nil {
		return nil
	}
	if err := s.store.Err(); err != nil {
		return fmt.Errorf("%w: %v", ErrDurabilityLost, err)
	}
	return nil
}

// committed closes a mutation whose batch has published: it reports a
// commit the log did not take, and otherwise runs the checkpoint
// cadence — when one is due the store pins a snapshot, moves the log
// to its next segment and returns; the snapshot is written off this
// lock. Called with wmu held.
func (s *System) committed() error {
	if err := s.durable(); err != nil || s.store == nil {
		return err
	}
	if _, err := s.store.MaybeCheckpoint(); err != nil {
		return fmt.Errorf("%w: %v", ErrDurabilityLost, err)
	}
	return nil
}

// WriteLockNS reports the total time mutations have spent waiting for
// the writer lock and holding it.
func (s *System) WriteLockNS() (wait, hold int64) {
	return s.wmuWaitNS.Load(), s.wmuHoldNS.Load()
}

// Options configures Open.
type Options struct {
	// MaterializeAllProvenance disables the superfluous-provenance-
	// relation optimization of Section 4.1.
	MaterializeAllProvenance bool
	// SyncEvery is the durable store's fsync cadence in committed
	// batches (<= 1 syncs every commit). Only used by OpenDurable.
	SyncEvery int
	// CheckpointEvery, when > 0, checkpoints the durable store after
	// this many committed batches (checked after each mutation).
	// Only used by OpenDurable.
	CheckpointEvery int
	// RetainEpochs, when non-zero, keeps superseded row versions for
	// time-travel queries: the newest RetainEpochs committed epochs stay
	// answerable via QueryAsOf/Diff (relstore.RetainAll retains
	// everything). Zero disables history retention (live-only sweeping,
	// the pre-time-travel behaviour).
	RetainEpochs uint64
}

// Open creates a system over a declared schema.
func Open(schema *model.Schema, opts Options) (*System, error) {
	ex, err := exchange.NewSystem(schema, exchange.Options{
		MaterializeAll: opts.MaterializeAllProvenance,
	})
	if err != nil {
		return nil, err
	}
	if opts.RetainEpochs != 0 {
		ex.DB.SetRetention(opts.RetainEpochs)
	}
	return &System{ex: ex, engine: proql.NewEngine(ex)}, nil
}

// OpenDurable creates (or reopens) a system whose storage persists in
// dir: every committed batch is appended to a write-ahead log and
// restart recovers from the newest checkpoint plus the log suffix,
// re-attaching the exchange engine's delta state warm — no cold full
// exchange. Call Checkpoint (or set Options.CheckpointEvery) to bound
// the replay suffix, and Close before process exit.
func OpenDurable(schema *model.Schema, dir string, opts Options) (*System, error) {
	ex, st, err := exchange.OpenDurable(schema, dir,
		wal.Options{SyncEvery: opts.SyncEvery, CheckpointEvery: opts.CheckpointEvery,
			Retain: opts.RetainEpochs},
		exchange.Options{MaterializeAll: opts.MaterializeAllProvenance})
	if err != nil {
		return nil, err
	}
	return &System{ex: ex, engine: proql.NewEngine(ex), store: st}, nil
}

// Store exposes the durability layer (nil for in-memory systems).
func (s *System) Store() *wal.Store { return s.store }

// Checkpoint snapshots a durable system and retires its log, waiting
// until the snapshot is on disk; a no-op on in-memory systems.
// Serialized with other mutations.
func (s *System) Checkpoint() error {
	if s.store == nil {
		return nil
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	return s.store.Checkpoint()
}

// Close flushes and closes the durability layer; the system stays
// usable in memory. A no-op on in-memory systems.
func (s *System) Close() error {
	if s.store == nil {
		return nil
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	return s.store.Close()
}

// Wrap adapts an already-built exchange system (e.g. a generated
// workload setting or the running-example fixture) into the facade.
func Wrap(ex *exchange.System) *System {
	return &System{ex: ex, engine: proql.NewEngine(ex)}
}

// WrapDurable is Wrap for an exchange system opened through a durable
// store (exchange.OpenDurable, fixture.DurableSystem, workload.
// OpenDurable): the facade takes ownership of the store, so Checkpoint,
// Close, and the CheckpointEvery cadence work as with OpenDurable.
func WrapDurable(ex *exchange.System, st *wal.Store) *System {
	s := Wrap(ex)
	s.store = st
	return s
}

// Exchange exposes the underlying exchange system for advanced use.
func (s *System) Exchange() *exchange.System { return s.ex }

// Engine exposes the ProQL engine for advanced use.
func (s *System) Engine() *proql.Engine { return s.engine }

// Insert adds local-contribution tuples to a relation and propagates
// them, as InsertLocal followed by Run does, but as one commit: one
// storage epoch, one log record and one sync on a durable system. It
// returns the epoch the commit published.
func (s *System) Insert(rel string, rows ...model.Tuple) (uint64, error) {
	locked, err := s.lockWrite()
	if err != nil {
		return 0, err
	}
	defer s.unlockWrite(locked)
	db := s.ex.DB
	db.BeginBatch()
	if err := s.ex.InsertLocal(rel, rows...); err != nil {
		db.EndBatch()
		return 0, err
	}
	if err := s.runLocked(); err != nil {
		return 0, err
	}
	return db.Epoch(), nil
}

// InsertLocal adds local-contribution tuples to a relation. Call Run
// afterwards to propagate them.
func (s *System) InsertLocal(rel string, rows ...model.Tuple) error {
	locked, err := s.lockWrite()
	if err != nil {
		return err
	}
	defer s.unlockWrite(locked)
	if err := s.ex.InsertLocal(rel, rows...); err != nil {
		return err
	}
	return s.durable()
}

// Run executes update exchange, materializing all peer instances and
// their provenance. The first call runs the full fixpoint; afterwards
// the engine's state persists, so subsequent calls propagate only the
// rows inserted since the previous run (a Δ-seeded RunDelta whose cost
// scales with the affected derivations, not the database). Deletions
// do not break the chain: DeleteLocal repairs the engine's journals
// from its deletion report, so a Run after it is still delta-seeded.
func (s *System) Run() error {
	locked, err := s.lockWrite()
	if err != nil {
		return err
	}
	defer s.unlockWrite(locked)
	s.ex.DB.BeginBatch()
	return s.runLocked()
}

// runLocked propagates the pending insertions and closes the batch the
// caller opened. Called with wmu held.
func (s *System) runLocked() error {
	// The caller's batch makes the whole run one storage epoch: a
	// concurrent snapshot sees the pre-run state or the fully
	// propagated one. Nothing is told of the commit: every query pins
	// the epoch it reads when it starts.
	_, err := s.ex.RunDelta()
	s.ex.DB.EndBatch()
	if err != nil {
		return err
	}
	return s.committed()
}

// Delete removes base tuples and incrementally propagates the
// deletions through the materialized views using their provenance
// (use case Q5), as one commit. It returns the epoch the commit
// published.
func (s *System) Delete(rel string, keys ...[]model.Datum) (uint64, *exchange.MaintenanceReport, error) {
	locked, err := s.lockWrite()
	if err != nil {
		return 0, nil, err
	}
	defer s.unlockWrite(locked)
	// Same epoch discipline as Run: the deletion and everything it
	// propagates commit atomically.
	db := s.ex.DB
	db.BeginBatch()
	report, err := s.ex.DeleteLocal(rel, keys...)
	db.EndBatch()
	if err != nil {
		return 0, nil, err
	}
	epoch := db.Epoch()
	if err := s.committed(); err != nil {
		return 0, nil, err
	}
	return epoch, report, nil
}

// DeleteLocal is Delete without the epoch.
func (s *System) DeleteLocal(rel string, keys ...[]model.Datum) (*exchange.MaintenanceReport, error) {
	_, report, err := s.Delete(rel, keys...)
	return report, err
}

// Query parses and executes a ProQL query.
func (s *System) Query(text string) (*proql.Result, error) {
	return s.engine.ExecString(text)
}

// QueryAsOf parses and executes a ProQL query against the retained
// state at epoch (time travel). It fails with
// relstore.ErrEpochOutOfRange when the epoch predates the retention
// horizon or exceeds the current Epoch(). Requires Options.RetainEpochs
// (epoch == Epoch() works regardless: the newest state is always
// retained).
func (s *System) QueryAsOf(text string, epoch uint64) (*proql.Result, error) {
	q, err := proql.Parse(text)
	if err != nil {
		return nil, err
	}
	return s.engine.Exec(context.Background(), q, proql.Options{AsOfEpoch: epoch})
}

// Diff evaluates a ProQL query at two retained epochs and reports the
// bindings and derivations that appeared or disappeared between them.
func (s *System) Diff(text string, from, to uint64) (*proql.DiffResult, error) {
	q, err := proql.Parse(text)
	if err != nil {
		return nil, err
	}
	return s.engine.Diff(context.Background(), q, from, to, proql.Options{})
}

// Epoch returns the newest committed storage epoch — the upper bound
// for QueryAsOf/Diff (and the epoch a live query observes).
func (s *System) Epoch() uint64 { return s.ex.DB.Epoch() }

// RetentionFloor returns the oldest epoch QueryAsOf can currently
// answer, or 0 when history retention is off.
func (s *System) RetentionFloor() uint64 { return s.ex.DB.RetentionFloor() }

// ASRIndex returns an empty index over the system: the facade holds
// no ASR. It remains only for bench/trace.go, whose Apply* calls on it
// return at once, and goes with the next change to bench/.
func (s *System) ASRIndex() *asr.Index { return asr.NewIndex(s.ex) }

// Graph materializes the full provenance graph of the current epoch
// from a pinned snapshot; the graph is the caller's, and later commits
// do not change it.
func (s *System) Graph() (*provgraph.Graph, error) {
	return s.engine.Graph()
}

// WriteDOT renders the full provenance graph (or a query's projected
// subgraph, via res.Graph) in Graphviz format.
func (s *System) WriteDOT(w io.Writer, title string) error {
	g, err := s.Graph()
	if err != nil {
		return err
	}
	return provgraph.WriteDOT(w, g, title)
}

// FormatResult renders a query result compactly for CLIs and examples.
func FormatResult(res *proql.Result, variable string) string {
	g, err := res.Graph()
	if err != nil {
		return fmt.Sprintf("(error assembling result graph: %v)\n", err)
	}
	out := ""
	for _, ref := range res.SortedRefs(variable) {
		line := provgraph.FormatRef(g, ref)
		if res.Annotations != nil {
			if v, ok := res.Annotations[ref]; ok {
				line += " -> " + res.Semiring.Format(v)
			}
		}
		out += line + "\n"
	}
	out += fmt.Sprintf("(%d results; backend=%s rules=%d unfold=%v eval=%v)\n",
		len(res.SortedRefs(variable)), res.Stats.Backend, res.Stats.UnfoldedRules,
		res.Stats.UnfoldTime.Round(10_000), res.Stats.EvalTime.Round(10_000))
	return out
}
