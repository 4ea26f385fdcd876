package relstore

import (
	"fmt"
	"maps"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/model"
)

// Database is a named collection of tables — one peer's replica of the
// whole CDSS (the paper's standalone ORCHESTRA engine keeps a complete
// replica at each peer) — and the epoch authority for snapshot
// isolation.
//
// Epoch discipline: writes stamp rows with published+1 (the pending
// epoch). Outside a batch every mutating table operation publishes
// immediately, so single-caller code behaves exactly as before:
// a write is visible to every snapshot taken after it returns.
// BeginBatch/EndBatch group a multi-step commit (a delta run plus its
// ASR patches) into one atomic epoch: snapshots taken mid-batch see
// none of the batch's writes, and EndBatch makes them all visible at
// once. Snapshot pins the current epoch and returns a read-only view;
// deleted slots are reclaimed only once no pin can still observe them.
type Database struct {
	mu sync.Mutex // guards tables, byOrd and pins
	// tables maps names to the writable tables. A definition change
	// replaces the map instead of writing into it, so a snapshot view
	// keeps the one its pin saw.
	tables map[string]*Table
	// byOrd indexes the writable tables by ordinal (Table.Ord); a
	// dropped table's entry stays nil.
	byOrd []*Table
	pins  map[uint64]int
	// version counts definition changes (table creates and drops); see
	// Version.
	version atomic.Uint64
	// published is the newest committed epoch; snapshots read as of it.
	published atomic.Uint64
	// batch suppresses per-operation publishing while > 0.
	batch atomic.Int32
	// ndead counts dead slots awaiting reclamation across all tables —
	// the fast-path guard that keeps publish O(1) when nothing died.
	ndead     atomic.Int64
	dirtyMu   sync.Mutex
	dirtyTabs map[*tableState]struct{}

	// retain and histFloor configure the time-travel retention horizon
	// (history.go): retain is the depth in epochs (0 = off, RetainAll =
	// unbounded) and histFloor the epoch history begins at.
	retain    atomic.Uint64
	histFloor atomic.Uint64

	// Commit capture: while hook is set, every mutation appends a
	// LoggedOp to logOps (under logMu — writers on different goroutines
	// may mutate different tables concurrently) and publish hands the
	// batch to the hook with its epoch. hook is written once, before any
	// logged mutation.
	hook   CommitHook
	logMu  sync.Mutex
	logOps []LoggedOp

	// Snapshot views: base points at the writable database, snapEpoch
	// and snapVersion freeze what the view observes, and views holds
	// the view's table handles by ordinal.
	base        *Database
	snapEpoch   uint64
	snapVersion uint64
	views       []Table
	closed      atomic.Bool

	// lastViews are the table handles of the newest view viewLocked
	// made, of lastEpoch and lastVersion: the next views of that pair
	// share them, since handles are never written once made.
	lastViews              []Table
	lastEpoch, lastVersion uint64
}

// NewDatabase returns an empty database.
func NewDatabase() *Database {
	db := &Database{
		tables:    make(map[string]*Table),
		pins:      make(map[uint64]int),
		dirtyTabs: make(map[*tableState]struct{}),
	}
	// Epochs start at 1: asOf 0 is reserved for the writer's own view,
	// so even a snapshot of a never-written database pins a real epoch.
	db.published.Store(1)
	return db
}

// Version returns a counter bumped on every definition change
// (CreateTable/DropTable). What is kept across reads of one table set
// — a snapshot's table handles, the path executor's shared dense
// tables — is keyed by it, so a table created or dropped since is
// never read through a stale handle. Row churn does not bump it. On a
// snapshot view this is the version frozen at snapshot time.
func (db *Database) Version() uint64 {
	if db.base != nil {
		return db.snapVersion
	}
	return db.version.Load()
}

// Epoch returns the newest committed epoch (for views, the pinned
// one). It only moves forward; two equal epochs observe equal data.
func (db *Database) Epoch() uint64 {
	if db.base != nil {
		return db.snapEpoch
	}
	return db.published.Load()
}

// Snapshot pins the current epoch and returns a read-only view: every
// table read through it observes exactly the state committed by that
// epoch, no matter what the writer commits afterwards. The caller
// must Close the view to release the pin (holding it only delays
// reclamation of deleted rows — it can never corrupt reads).
// Snapshotting a snapshot re-pins the same epoch.
func (db *Database) Snapshot() *Database {
	base := db
	if db.base != nil {
		base = db.base
	}
	base.mu.Lock()
	defer base.mu.Unlock()
	if db.base != nil {
		base.pins[db.snapEpoch]++
		return &Database{tables: db.tables, views: db.views, base: base, snapEpoch: db.snapEpoch, snapVersion: db.snapVersion}
	}
	return base.viewLocked(base.published.Load())
}

// viewLocked pins epoch and returns the read-only view of the current
// table set as of it: the table handles, made once per (epoch,
// definition version), and the name map shared with the writable
// database. Callers hold db.mu on the writable database.
func (db *Database) viewLocked(epoch uint64) *Database {
	version := db.version.Load()
	views := db.lastViews
	if views == nil || db.lastEpoch != epoch || db.lastVersion != version {
		views = make([]Table, len(db.byOrd))
		for i, t := range db.byOrd {
			if t != nil {
				views[i] = Table{Schema: t.Schema, s: t.s, asOf: epoch}
			}
		}
		db.lastViews, db.lastEpoch, db.lastVersion = views, epoch, version
	}
	db.pins[epoch]++
	return &Database{tables: db.tables, views: views, base: db, snapEpoch: epoch, snapVersion: version}
}

// Close releases a snapshot view's pin, allowing rows deleted after
// its epoch to be reclaimed. A no-op on the writable database and on
// an already-closed view.
func (db *Database) Close() {
	if db.base == nil || !db.closed.CompareAndSwap(false, true) {
		return
	}
	db.base.mu.Lock()
	if n := db.base.pins[db.snapEpoch]; n > 1 {
		db.base.pins[db.snapEpoch] = n - 1
	} else {
		delete(db.base.pins, db.snapEpoch)
	}
	db.base.mu.Unlock()
	db.base.tryReclaim()
}

// BeginBatch suppresses per-operation publishing: writes made until
// the matching EndBatch stamp the same pending epoch and stay
// invisible to new snapshots. Batches nest.
func (db *Database) BeginBatch() {
	if db.base != nil {
		return
	}
	db.batch.Add(1)
}

// EndBatch closes the innermost batch; the outermost EndBatch
// publishes everything the batch wrote as one atomic epoch.
func (db *Database) EndBatch() {
	if db.base != nil {
		return
	}
	if db.batch.Add(-1) == 0 {
		db.publish()
	}
}

// opPublish publishes after a single mutating table operation unless a
// batch is open. Table code calls it outside the table lock.
func (db *Database) opPublish() {
	if db.batch.Load() == 0 {
		db.publish()
	}
}

func (db *Database) publish() {
	e := db.published.Add(1)
	if db.hook != nil {
		db.logMu.Lock()
		ops := db.logOps
		db.logOps = nil
		db.logMu.Unlock()
		if len(ops) > 0 {
			db.hook(e, ops)
		}
	}
	db.tryReclaim()
}

// noteDead registers a table as holding dead slots awaiting
// reclamation. Called under the table's write lock; dirtyMu is a leaf
// lock so the ordering is safe.
func (db *Database) noteDead(s *tableState) {
	db.ndead.Add(1)
	db.dirtyMu.Lock()
	db.dirtyTabs[s] = struct{}{}
	db.dirtyMu.Unlock()
}

// tryReclaim sweeps dead slots that no pinned snapshot can still
// observe. The observable epochs are the pinned ones plus the
// published epoch (a future snapshot pins at or after it); a dead
// version whose [born, died) interval contains none of them is gone
// for good. Sweeping against the whole pin set — not just the oldest
// pin — squashes hot-key version chains under a long-pinned snapshot:
// versions born and dead entirely between two pins reclaim
// immediately instead of accumulating behind the horizon.
func (db *Database) tryReclaim() {
	if db.base != nil || db.ndead.Load() == 0 {
		return
	}
	db.dirtyMu.Lock()
	if len(db.dirtyTabs) == 0 {
		db.dirtyMu.Unlock()
		return
	}
	tabs := make([]*tableState, 0, len(db.dirtyTabs))
	for s := range db.dirtyTabs {
		tabs = append(tabs, s)
	}
	clear(db.dirtyTabs)
	db.dirtyMu.Unlock()
	db.mu.Lock()
	// pub must be read under the same lock Snapshot pins under: a pin
	// racing in after the copy lands at an epoch >= pub, and sweep
	// keeps everything that died after pub. The retention floor is
	// derived under the same lock for the same reason: SnapshotAt
	// validates against a floor computed from a pub at least as new as
	// any sweep already past this section (see retentionFloorAt).
	pub := db.published.Load()
	floor := db.retentionFloorAt(pub)
	// Ratchet the history floor to what this sweep reclaims under:
	// versions below it are gone for good, so a later retention
	// widening must not rewind the floor into destroyed history —
	// SnapshotAt would answer those epochs with silently partial state.
	if floor > db.histFloor.Load() {
		db.histFloor.Store(floor)
	}
	pins := make([]uint64, 0, len(db.pins))
	for e := range db.pins {
		pins = append(pins, e)
	}
	db.mu.Unlock()
	sort.Slice(pins, func(i, j int) bool { return pins[i] < pins[j] })
	total := 0
	for _, s := range tabs {
		n, remaining := s.sweep(pins, pub, floor)
		total += n
		if remaining {
			db.dirtyMu.Lock()
			db.dirtyTabs[s] = struct{}{}
			db.dirtyMu.Unlock()
		}
	}
	if total > 0 {
		db.ndead.Add(-int64(total))
	}
}

// OpKind discriminates the mutations a commit hook observes.
type OpKind uint8

const (
	// OpInsert is a row insertion; Row holds the stored tuple.
	OpInsert OpKind = iota + 1
	// OpDeleteKey is a keyed delete; Key holds the canonical primary-key
	// encoding (model.EncodeDatums of the key attributes).
	OpDeleteKey
	// OpDeleteRow is a keyless delete; Row holds the removed tuple
	// (replay removes one matching row — one delete under multiset
	// semantics).
	OpDeleteRow
	// OpCreateTable is a table creation; Schema holds the definition.
	OpCreateTable
	// OpDropTable removes the named table.
	OpDropTable
)

// LoggedOp is one captured mutation, in execution order within its
// commit. Row tuples are aliased, not copied — they are immutable once
// stored, and hooks run synchronously inside the commit.
type LoggedOp struct {
	Kind   OpKind
	Table  string
	Row    model.Tuple
	Key    string
	Schema *TableSchema
}

// CommitHook observes committed batches: epoch is the just-published
// epoch and ops every mutation it made visible, in execution order.
// The hook runs synchronously inside the publish (EndBatch or the
// per-operation publish outside batches) — this is the write-ahead
// log's append point. It must not mutate the database.
type CommitHook func(epoch uint64, ops []LoggedOp)

// SetCommitHook installs the commit hook. It must be installed before
// any mutation it should observe and before concurrent use of the
// database; mutations made while no hook is set are not captured
// (recovery replays run exactly so).
func (db *Database) SetCommitHook(h CommitHook) { db.hook = h }

// logOp appends one captured mutation to the pending commit's log.
func (db *Database) logOp(op LoggedOp) {
	db.logMu.Lock()
	db.logOps = append(db.logOps, op)
	db.logMu.Unlock()
}

// FastForward advances the published epoch to at least e. Recovery
// uses it after replaying a write-ahead log so that epochs committed
// after the restart stay ahead of every epoch already on disk.
func (db *Database) FastForward(e uint64) {
	for {
		cur := db.published.Load()
		if e <= cur || db.published.CompareAndSwap(cur, e) {
			return
		}
	}
}

// Pins returns how many snapshot views are currently open (testing
// and stats).
func (db *Database) Pins() int {
	base := db
	if db.base != nil {
		base = db.base
	}
	base.mu.Lock()
	n := 0
	for _, c := range base.pins {
		n += c
	}
	base.mu.Unlock()
	return n
}

// CreateTable registers a new empty table.
func (db *Database) CreateTable(schema *TableSchema) (*Table, error) {
	if db.base != nil {
		return nil, fmt.Errorf("relstore: CreateTable on a read-only snapshot")
	}
	db.mu.Lock()
	if _, dup := db.tables[schema.Name]; dup {
		db.mu.Unlock()
		return nil, fmt.Errorf("relstore: table %q already exists", schema.Name)
	}
	t := newTable(schema, db)
	t.s.ord = len(db.byOrd)
	db.byOrd = append(db.byOrd, t)
	tables := maps.Clone(db.tables)
	tables[schema.Name] = t
	db.tables = tables
	db.version.Add(1)
	logged := db.hook != nil
	if logged {
		db.logOp(LoggedOp{Kind: OpCreateTable, Table: schema.Name, Schema: schema})
	}
	db.mu.Unlock()
	if logged {
		// DDL publishes like any mutation so the logged op reaches the
		// commit hook even when no row write follows it.
		db.opPublish()
	}
	return t, nil
}

// DropTable removes a table if it exists. Existing snapshot views
// keep reading their copy. A no-op on views.
func (db *Database) DropTable(name string) {
	if db.base != nil {
		return
	}
	db.mu.Lock()
	logged := false
	if t, ok := db.tables[name]; ok {
		tables := maps.Clone(db.tables)
		delete(tables, name)
		db.tables = tables
		db.byOrd[t.s.ord] = nil
		db.version.Add(1)
		if db.hook != nil {
			db.logOp(LoggedOp{Kind: OpDropTable, Table: name})
			logged = true
		}
	}
	db.mu.Unlock()
	if logged {
		db.opPublish()
	}
}

// Table looks up a table by name.
func (db *Database) Table(name string) (*Table, bool) {
	if db.base != nil {
		t, ok := db.tables[name]
		if !ok {
			return nil, false
		}
		return &db.views[t.s.ord], true
	}
	db.mu.Lock()
	t, ok := db.tables[name]
	db.mu.Unlock()
	return t, ok
}

// TableAt returns the table with the given ordinal (Table.Ord), if it
// exists: on a snapshot view, a slice index.
func (db *Database) TableAt(ord int) (*Table, bool) {
	if db.base != nil {
		if ord < 0 || ord >= len(db.views) || db.views[ord].s == nil {
			return nil, false
		}
		return &db.views[ord], true
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if ord < 0 || ord >= len(db.byOrd) || db.byOrd[ord] == nil {
		return nil, false
	}
	return db.byOrd[ord], true
}

// MustTable looks up a table, panicking if absent (programming error).
func (db *Database) MustTable(name string) *Table {
	t, ok := db.Table(name)
	if !ok {
		panic(fmt.Sprintf("relstore: no such table %q", name))
	}
	return t
}

// TableNames returns all table names, sorted.
func (db *Database) TableNames() []string {
	names := make([]string, 0, len(db.tables))
	if db.base != nil {
		for n := range db.tables {
			names = append(names, n)
		}
	} else {
		db.mu.Lock()
		for n := range db.tables {
			names = append(names, n)
		}
		db.mu.Unlock()
	}
	sort.Strings(names)
	return names
}

// TotalRows sums Len over all tables; the "instance size" metric of
// Figures 9 and 10.
func (db *Database) TotalRows() int {
	total := 0
	for _, name := range db.TableNames() {
		if t, ok := db.Table(name); ok {
			total += t.Len()
		}
	}
	return total
}
