// Package relstore is the relational storage and execution substrate:
// an in-memory stand-in for the RDBMS (DB2 in the paper) that stores
// the peer instances, the provenance relations of Section 4.1, and the
// ASR tables of Section 5, and streams the physical plans that ProQL
// queries are translated into (scans, key lookups, index probes,
// filters, projections, hash joins and index joins); the union over
// rules and the semiring aggregation happen in the proql engine.
//
// Tables are multi-versioned: every row slot carries the epoch it was
// born in and, once deleted, the epoch it died in. Database.Snapshot
// pins an epoch and returns a read-only view whose reads observe
// exactly the rows committed by that epoch, so ProQL queries run
// against a consistent state while delta runs keep committing. The
// writer pays O(changed rows) per commit — no copy-on-write of tables
// or indexes — and deleted slots are reclaimed once no pinned snapshot
// can still observe them. See snapshot.go for the epoch discipline,
// backend.go for the slot store behind each table, and
// snapshot.go's commit hook for the write-ahead logging seam.
package relstore

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/model"
)

// TableSchema describes a stored table. Unlike model.Relation, a table
// may have no primary key (ASR tables contain NULL-padded rows and may
// hold duplicates) — Key is nil in that case.
type TableSchema struct {
	Name    string
	Columns []model.Column
	Key     []int // nil => no primary key, duplicates allowed
}

// ColumnIndex returns the position of the named column, or -1.
func (s *TableSchema) ColumnIndex(name string) int {
	for i, c := range s.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// SchemaOf adapts a model.Relation to a table schema.
func SchemaOf(r *model.Relation) *TableSchema {
	return &TableSchema{Name: r.Name, Columns: r.Columns, Key: r.Key}
}

// Table is a handle to a stored table with optional primary-key
// enforcement and optional secondary hash indexes. The handle is
// cheap: the writable head table and every snapshot view share the
// same guarded state, differing only in the epoch they read as of.
// Writes are rejected on views. Mutating methods may be called by one
// logical writer at a time (concurrent writers are serialized per
// operation by the internal lock, but the scratch aliasing of
// InsertKeyed assumes one writer per table); reads are safe from any
// number of goroutines.
type Table struct {
	Schema *TableSchema
	s      *tableState
	// asOf is 0 on the writable head (reads see the latest state,
	// including uncommitted writes) and the pinned epoch on views.
	asOf uint64
}

// tableState is the versioned storage shared by a head table and all
// of its snapshot views: a slot store holding the row versions, plus
// the key map, secondary indexes, and reclamation bookkeeping.
type tableState struct {
	mu     sync.RWMutex
	schema *TableSchema
	// ord is the table's ordinal in its database (see Table.Ord).
	ord int
	// db is the owning database (epoch source); nil for standalone
	// tables, which delete eagerly since no snapshot can observe them.
	db *Database
	// be stores the row versions (slot → tuple, born/died interval,
	// version-chain link).
	be *memBackend
	// pk maps encoded key datums to the newest slot for that key (only
	// when Key != nil). The entry may point at a dead slot until the
	// slot is reclaimed; prev links chain the older versions behind it.
	pk map[string]int
	// indexes maps an index name (from IndexName) to a hash index.
	// Buckets hold live and dead-but-unreclaimed slots; probes filter
	// by visibility.
	indexes map[string]*hashIndex
	// dead lists deleted slots awaiting reclamation (empty for
	// standalone tables, which reclaim inside the delete).
	dead []int
	// live counts rows visible to the writer.
	live int
	// keyBuf is the reusable scratch buffer for key encoding, so an
	// insert or probe costs no builder allocation (the Datalog
	// engine's firing passes insert millions of rows). ixBuf is the
	// separate scratch for secondary-index keys, so the primary-key
	// encoding of the row just inserted stays valid until the table's
	// next key-encoding operation (InsertKeyed relies on this).
	keyBuf []byte
	ixBuf  []byte
}

// hashIndex maps encoded column values to the row slots holding them.
type hashIndex struct {
	Index
	buckets map[string][]int
}

// NewTable creates an empty standalone table (not owned by a
// Database): deletes reclaim immediately and no snapshots exist.
func NewTable(schema *TableSchema) *Table {
	return newTable(schema, nil)
}

func newTable(schema *TableSchema, db *Database) *Table {
	s := &tableState{schema: schema, db: db, be: &memBackend{}, indexes: make(map[string]*hashIndex)}
	if schema.Key != nil {
		s.pk = make(map[string]int)
	}
	return &Table{Schema: schema, s: s}
}

// stamp is the epoch new writes are born (and deletes die) in: one
// past the last published epoch, so a snapshot taken before the
// surrounding commit publishes cannot see them.
func (s *tableState) stamp() uint64 {
	if s.db == nil {
		return 1
	}
	return s.db.published.Load() + 1
}

// visible reports whether slot i exists at epoch asOf (0 = the
// writer's view of the latest state). Callers hold s.mu.
func (s *tableState) visible(i int, asOf uint64) bool {
	_, ok := s.liveRow(i, asOf)
	return ok
}

// liveRow returns the slot's row when it is visible at asOf (0 = the
// writer's view). Callers hold s.mu.
func (s *tableState) liveRow(i int, asOf uint64) (model.Tuple, bool) {
	row := s.be.Row(i)
	if row == nil {
		return nil, false
	}
	born, died := s.be.Stamps(i)
	if asOf == 0 {
		if died != 0 {
			return nil, false
		}
		return row, true
	}
	if born <= asOf && (died == 0 || died > asOf) {
		return row, true
	}
	return nil, false
}

func (t *Table) readOnlyErr() error {
	return fmt.Errorf("relstore: %s: write rejected on a read-only snapshot (epoch %d)", t.Schema.Name, t.asOf)
}

// IndexName derives the registry key for a secondary index on cols.
func IndexName(cols []int) string {
	parts := make([]string, len(cols))
	for i, c := range cols {
		parts[i] = fmt.Sprint(c)
	}
	return strings.Join(parts, ",")
}

// Index is a secondary index on Cols, resolved once where a plan node
// or probe descriptor is built: a probe through it reuses the registry
// name instead of deriving it per call.
type Index struct {
	Cols []int
	name string
}

// IndexOn resolves the index on cols.
func IndexOn(cols []int) Index { return Index{Cols: cols, name: IndexName(cols)} }

// Name is the index's registry name, IndexName(ix.Cols).
func (ix Index) Name() string { return ix.name }

// Ord returns the table's ordinal in its database: tables are numbered
// in creation order and a dropped table's ordinal is never taken again,
// so an ordinal a caller resolved once names that table or none, and
// within one pinned snapshot (Ord, slot) names exactly one row version
// (see LookupKeySlot). A standalone table's ordinal is 0.
func (t *Table) Ord() int { return t.s.ord }

// Slots returns the size of the table's slot space: an upper bound on
// the rows any view of it holds.
func (t *Table) Slots() int {
	s := t.s
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.be.Slots()
}

// Len returns the number of live rows (at the view's epoch, for
// snapshots).
func (t *Table) Len() int {
	s := t.s
	s.mu.RLock()
	defer s.mu.RUnlock()
	if t.asOf == 0 {
		return s.live
	}
	n := 0
	for i, slots := 0, s.be.Slots(); i < slots; i++ {
		if s.visible(i, t.asOf) {
			n++
		}
	}
	return n
}

// Empty reports whether the table holds no row (at the view's epoch,
// for snapshots). A view stops at its first visible slot.
func (t *Table) Empty() bool {
	s := t.s
	s.mu.RLock()
	defer s.mu.RUnlock()
	if t.asOf == 0 {
		return s.live == 0
	}
	for i, slots := 0, s.be.Slots(); i < slots; i++ {
		if s.visible(i, t.asOf) {
			return false
		}
	}
	return true
}

// Insert adds a row. With a primary key, set semantics apply: a row
// whose key already exists is ignored and Insert reports false. The
// row is stored by reference; callers must not mutate it afterwards.
func (t *Table) Insert(row model.Tuple) (bool, error) {
	_, ok, err := t.InsertKeyed(row)
	return ok, err
}

// InsertKeyed is Insert additionally surfacing the row's canonical
// primary-key encoding (the same bytes as model.EncodeDatums of the key
// attributes, i.e. a model.TupleRef's Key). Consumers that intern
// tuples by encoded key — the update-exchange support index — reuse the
// probe Insert performs anyway instead of re-encoding the key. The
// returned slice aliases the table's scratch buffer: it is valid only
// until the table's next key-encoding operation (insert, delete, or
// keyed lookup) and must be copied to be retained. For keyless tables
// the encoding is nil.
func (t *Table) InsertKeyed(row model.Tuple) ([]byte, bool, error) {
	if t.asOf != 0 {
		return nil, false, t.readOnlyErr()
	}
	if len(row) != len(t.Schema.Columns) {
		return nil, false, fmt.Errorf("relstore: %s: row arity %d, want %d", t.Schema.Name, len(row), len(t.Schema.Columns))
	}
	s := t.s
	s.mu.Lock()
	key, inserted := s.insert(row)
	s.mu.Unlock()
	if inserted && s.db != nil {
		s.db.opPublish()
	}
	return key, inserted, nil
}

// insert does the keyed/keyless insert under s.mu, returning the key
// encoding (aliasing keyBuf) and whether the row was new.
func (s *tableState) insert(row model.Tuple) ([]byte, bool) {
	if s.pk == nil {
		idx := s.be.Claim(row, s.stamp())
		s.indexRow(idx, row)
		s.live++
		s.logInsert(row)
		return nil, true
	}
	// Duplicate lookup through the scratch buffer is allocation-free;
	// the key string is materialized only for new rows.
	key := s.encodeKey(row, s.schema.Key)
	if head, ok := s.pk[string(key)]; ok {
		if _, died := s.be.Stamps(head); died == 0 {
			return key, false
		}
		// The key was deleted: the new row starts a fresh version,
		// chained to the dead one so snapshots keep finding the old
		// version until it is reclaimed.
		idx := s.be.Claim(row, s.stamp())
		s.be.SetPrev(idx, head)
		s.pk[string(key)] = idx
		s.indexRow(idx, row)
		s.live++
		s.logInsert(row)
		return key, true
	}
	idx := s.be.Claim(row, s.stamp())
	s.pk[string(key)] = idx
	s.indexRow(idx, row)
	s.live++
	s.logInsert(row)
	return key, true
}

// logInsert captures the insert for the database's commit log. Called
// under s.mu; a no-op unless a commit hook is installed.
func (s *tableState) logInsert(row model.Tuple) {
	if s.db == nil || s.db.hook == nil {
		return
	}
	s.db.logOp(LoggedOp{Kind: OpInsert, Table: s.schema.Name, Row: row})
}

// logDelete captures the logical delete of a live row for the
// database's commit log: by canonical key encoding for keyed tables,
// by full row for keyless ones (replay removes one matching row, which
// is exactly one delete under multiset semantics). Called under s.mu.
func (s *tableState) logDelete(row model.Tuple) {
	if s.db == nil || s.db.hook == nil {
		return
	}
	op := LoggedOp{Table: s.schema.Name}
	if s.schema.Key != nil {
		op.Kind, op.Key = OpDeleteKey, encodeCols(row, s.schema.Key)
	} else {
		op.Kind, op.Row = OpDeleteRow, row
	}
	s.db.logOp(op)
}

// encodeKey encodes the row's cols into the table's scratch buffer;
// the result is only valid until the next encodeKey call.
func (s *tableState) encodeKey(row model.Tuple, cols []int) []byte {
	buf := s.keyBuf[:0]
	for _, c := range cols {
		buf = model.AppendDatum(buf, row[c])
	}
	s.keyBuf = buf
	return buf
}

func (s *tableState) indexRow(idx int, row model.Tuple) {
	if len(s.indexes) == 0 {
		return
	}
	for _, ix := range s.indexes {
		buf := s.ixBuf[:0]
		for _, c := range ix.Cols {
			buf = model.AppendDatum(buf, row[c])
		}
		s.ixBuf = buf
		ix.buckets[string(buf)] = append(ix.buckets[string(buf)], idx)
	}
}

// Delete removes the row with the given primary key, reporting whether
// it existed. Only valid on keyed tables.
func (t *Table) Delete(key []model.Datum) (bool, error) {
	if t.s.pk == nil {
		return false, fmt.Errorf("relstore: %s has no primary key", t.Schema.Name)
	}
	return t.DeleteEncoded(model.EncodeDatums(key))
}

// DeleteEncoded is Delete for callers that already hold the canonical
// key encoding (model.EncodeDatums of the key attributes) — deletion
// propagation addresses tuples by model.TupleRef, whose Key field is
// exactly this encoding, so the delete needs no re-encoding round trip.
func (t *Table) DeleteEncoded(enc string) (bool, error) {
	if t.asOf != 0 {
		return false, t.readOnlyErr()
	}
	s := t.s
	if s.pk == nil {
		return false, fmt.Errorf("relstore: %s has no primary key", t.Schema.Name)
	}
	s.mu.Lock()
	idx, ok := s.pk[enc]
	if ok {
		if _, died := s.be.Stamps(idx); died == 0 {
			s.kill(idx)
		} else {
			ok = false
		}
	}
	s.mu.Unlock()
	if ok && s.db != nil {
		s.db.opPublish()
	}
	return ok, nil
}

// kill marks a live slot dead in the pending epoch. Standalone tables
// reclaim immediately (no snapshot can observe them); tables owned by
// a database defer reclamation to the epoch sweep.
func (s *tableState) kill(idx int) {
	s.logDelete(s.be.Row(idx))
	s.be.Kill(idx, s.stamp())
	s.live--
	if s.db == nil {
		s.reclaim(idx)
		return
	}
	s.dead = append(s.dead, idx)
	s.db.noteDead(s)
}

// reclaim removes a dead slot for good: its secondary-index entries
// and primary-key chain link go away and the slot returns to the
// backend's free pool. Callers hold s.mu and guarantee no snapshot can
// still see it.
func (s *tableState) reclaim(idx int) {
	row := s.be.Row(idx)
	for _, ix := range s.indexes {
		k := encodeCols(row, ix.Cols)
		bucket := ix.buckets[k]
		for i, r := range bucket {
			if r == idx {
				ix.buckets[k] = append(bucket[:i], bucket[i+1:]...)
				break
			}
		}
		if len(ix.buckets[k]) == 0 {
			delete(ix.buckets, k)
		}
	}
	if s.pk != nil {
		// encodeCols, not encodeKey: the keyBuf scratch belongs to the
		// insert path, whose callers may still hold the returned alias
		// without the lock — and reclamation can run on whichever
		// goroutine released the last snapshot pin.
		key := encodeCols(row, s.schema.Key)
		if head, ok := s.pk[key]; ok {
			if head == idx {
				if prev := s.be.Prev(idx); prev >= 0 {
					s.pk[key] = prev
				} else {
					delete(s.pk, key)
				}
			} else {
				for cur := head; cur >= 0; cur = s.be.Prev(cur) {
					if s.be.Prev(cur) == idx {
						s.be.SetPrev(cur, s.be.Prev(idx))
						break
					}
				}
			}
		}
	}
	s.be.Release(idx)
}

// sweep reclaims every dead slot no longer observable, returning how
// many it reclaimed and whether unreclaimable dead slots remain. pins
// is the ascending set of pinned snapshot epochs and pub the published
// epoch as read under the pin lock: a reader exists (or can start) at
// each pin and at any epoch >= pub, so a dead version is reclaimable
// iff it died at or before pub and its [born, died) interval contains
// no pin. Sweeping against the whole pin set — not just the oldest pin
// — is what squashes hot-key version chains under a long-pinned
// snapshot: intermediate versions born and dead between two pins go
// away immediately, keeping only the newest version visible per
// pinned epoch. floor is the retention floor (history.go): a version
// that died after it is still answerable through SnapshotAt and is
// kept regardless of pins; 0 means retention is off.
func (s *tableState) sweep(pins []uint64, pub uint64, floor uint64) (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.dead) == 0 {
		return 0, false
	}
	kept := s.dead[:0]
	n := 0
	for _, idx := range s.dead {
		born, died := s.be.Stamps(idx)
		if died == 0 {
			// Defensive: a live slot has no business on the dead list.
			continue
		}
		if died > pub {
			// Could still become visible to a snapshot pinned at or
			// after pub.
			kept = append(kept, idx)
			continue
		}
		if floor != 0 && died > floor {
			// Retained history: some epoch in [floor, pub] still sees
			// this version (born <= pub always holds for died <= pub).
			kept = append(kept, idx)
			continue
		}
		// Observable iff some pinned epoch falls inside [born, died).
		i := sort.Search(len(pins), func(i int) bool { return pins[i] >= born })
		if i < len(pins) && pins[i] < died {
			kept = append(kept, idx)
			continue
		}
		s.reclaim(idx)
		n++
	}
	s.dead = kept
	return n, len(kept) > 0
}

// ChainLen reports how many versions the table currently holds for the
// given primary key: the newest slot plus every chained older version
// awaiting reclamation. 0 when the key has no slot at all. Diagnostics
// for the version-chain squash; O(chain length).
func (t *Table) ChainLen(key []model.Datum) int {
	s := t.s
	if s.pk == nil {
		return 0
	}
	enc := model.EncodeDatums(key)
	s.mu.RLock()
	defer s.mu.RUnlock()
	idx, ok := s.pk[enc]
	if !ok {
		return 0
	}
	n := 0
	for cur := idx; cur >= 0; cur = s.be.Prev(cur) {
		n++
	}
	return n
}

// DeleteWhere removes every live row for which match returns true,
// maintaining the primary key (if any) and all secondary indexes, and
// reports how many rows were removed. Unlike Delete it works on
// keyless tables (ASR backing tables hold NULL-padded span rows with
// no primary key), which is what incremental ASR maintenance patches.
// match must not mutate the rows or the table; it runs under the
// table's write lock.
func (t *Table) DeleteWhere(match func(model.Tuple) bool) int {
	if t.asOf != 0 {
		panic(t.readOnlyErr())
	}
	s := t.s
	s.mu.Lock()
	removed := 0
	for idx, slots := 0, s.be.Slots(); idx < slots; idx++ {
		row, ok := s.liveRow(idx, 0)
		if !ok || !match(row) {
			continue
		}
		s.kill(idx)
		removed++
	}
	s.mu.Unlock()
	if removed > 0 && s.db != nil {
		s.db.opPublish()
	}
	return removed
}

// LookupKey returns the row with the given primary key, if present.
func (t *Table) LookupKey(key []model.Datum) (model.Tuple, bool) {
	if t.s.pk == nil {
		return nil, false
	}
	return t.LookupEncoded(model.EncodeDatums(key))
}

// LookupKeyBytes is LookupEncoded for callers holding the canonical
// key encoding as a byte scratch: the map probe allocates nothing.
func (t *Table) LookupKeyBytes(enc []byte) (model.Tuple, bool) {
	_, row, ok := t.LookupKeySlot(enc)
	return row, ok
}

// LookupKeySlot is LookupKeyBytes also returning the slot of the
// version it found. A slot is released only once no snapshot can see
// its version, so on a snapshot view the slot names that version for
// as long as the view stays pinned.
func (t *Table) LookupKeySlot(enc []byte) (int, model.Tuple, bool) {
	s := t.s
	if s.pk == nil {
		return 0, nil, false
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	idx, ok := s.pk[string(enc)]
	if !ok {
		return 0, nil, false
	}
	return s.lookupVersion(idx, t.asOf)
}

// LookupEncoded is LookupKey for callers holding the canonical key
// encoding (a model.TupleRef's Key field).
func (t *Table) LookupEncoded(enc string) (model.Tuple, bool) {
	s := t.s
	if s.pk == nil {
		return nil, false
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	idx, ok := s.pk[enc]
	if !ok {
		return nil, false
	}
	_, row, ok := s.lookupVersion(idx, t.asOf)
	return row, ok
}

// lookupVersion walks the version chain from the newest slot to the
// one visible at asOf, returning that slot and its row. The writer
// view stops at the head: only the newest version of a key can be
// live.
func (s *tableState) lookupVersion(idx int, asOf uint64) (int, model.Tuple, bool) {
	for idx >= 0 {
		if row, ok := s.liveRow(idx, asOf); ok {
			return idx, row, true
		}
		if asOf == 0 {
			return 0, nil, false
		}
		idx = s.be.Prev(idx)
	}
	return 0, nil, false
}

// CreateIndex builds (or rebuilds) a secondary hash index on cols.
// A no-op on snapshot views (probes fall back to scans).
func (t *Table) CreateIndex(cols []int) {
	if t.asOf != 0 {
		return
	}
	s := t.s
	s.mu.Lock()
	s.createIndexLocked(cols)
	s.mu.Unlock()
}

func (s *tableState) createIndexLocked(cols []int) {
	// Presized for the worst case of all-distinct keys: an index build
	// over a loaded table (the recovery path rebuilds every probe index
	// at reopen) would otherwise spend most of its time rehashing the
	// growing bucket map.
	slots := s.be.Slots()
	ix := &hashIndex{Index: IndexOn(append([]int(nil), cols...)), buckets: make(map[string][]int, slots)}
	// Dead-but-unreclaimed slots are indexed too: snapshot probes must
	// still find them, and reclamation removes their entries.
	buf := s.ixBuf
	for idx := 0; idx < slots; idx++ {
		row := s.be.Row(idx)
		if row == nil {
			continue
		}
		buf = buf[:0]
		for _, c := range cols {
			buf = model.AppendDatum(buf, row[c])
		}
		k := string(buf)
		ix.buckets[k] = append(ix.buckets[k], idx)
	}
	s.ixBuf = buf
	s.indexes[ix.name] = ix
}

// HasIndex reports whether an index on exactly cols exists.
func (t *Table) HasIndex(cols []int) bool {
	s := t.s
	s.mu.RLock()
	_, ok := s.indexes[IndexName(cols)]
	s.mu.RUnlock()
	return ok
}

// EnsureIndex builds a secondary hash index on cols unless one already
// exists — the idempotent entry point for writers that want an index
// on first use without paying a rebuild on every call. A no-op on
// snapshot views: query paths must not mutate shared table state, so
// views scan when the writer did not pre-build the index.
func (t *Table) EnsureIndex(cols []int) {
	if t.asOf != 0 {
		return
	}
	s := t.s
	s.mu.Lock()
	if _, ok := s.indexes[IndexName(cols)]; !ok {
		s.createIndexLocked(cols)
	}
	s.mu.Unlock()
}

// AccessKind says how an access path reaches the rows of a table.
// Kinds are ordered by how selective they are known to be without
// statistics: a larger kind is a better path.
type AccessKind int

// Access kinds.
const (
	// AccessScan reads every row: no key or index is covered.
	AccessScan AccessKind = iota
	// AccessIndex probes an existing secondary hash index.
	AccessIndex
	// AccessPK looks the primary key up: at most one row.
	AccessPK
)

func (k AccessKind) String() string {
	switch k {
	case AccessIndex:
		return "index"
	case AccessPK:
		return "pk"
	}
	return "scan"
}

// AccessPath is how to fetch the rows of a table for which a list of
// columns is bound to known values. Probe and Residual partition the
// positions of that list: Probe, in primary-key or index column order,
// forms the lookup key; Residual columns are not covered by the lookup
// and must be compared on the fetched rows. Index is the index an
// AccessIndex path probes, resolved with the path.
type AccessPath struct {
	Kind     AccessKind
	Probe    []int
	Residual []int
	Index    Index
}

// ChooseAccess picks the access path for rows whose columns bound are
// known, from what the table can observe about itself: a primary-key
// lookup when bound covers the key, else a probe of the widest existing
// secondary index bound covers, else a scan with every column residual.
// It builds no index — writers pre-build the ones their readers need,
// and snapshot views share them.
func (t *Table) ChooseAccess(bound []int) AccessPath {
	cover := func(cols []int) []int {
		if len(cols) == 0 || len(cols) > len(bound) {
			return nil
		}
		probe := make([]int, len(cols))
		for i, c := range cols {
			p := slices.Index(bound, c)
			if p < 0 {
				return nil
			}
			probe[i] = p
		}
		return probe
	}
	path := AccessPath{}
	if probe := cover(t.Schema.Key); probe != nil {
		path = AccessPath{Kind: AccessPK, Probe: probe}
	} else {
		s := t.s
		var best *hashIndex
		s.mu.RLock()
		for _, ix := range s.indexes {
			// Map order is random: break width ties by name.
			if best != nil && (len(ix.Cols) < len(best.Cols) ||
				len(ix.Cols) == len(best.Cols) && ix.name > best.name) {
				continue
			}
			if probe := cover(ix.Cols); probe != nil {
				best, path = ix, AccessPath{Kind: AccessIndex, Probe: probe, Index: ix.Index}
			}
		}
		s.mu.RUnlock()
	}
	for p := range bound {
		if !slices.Contains(path.Probe, p) {
			path.Residual = append(path.Residual, p)
		}
	}
	return path
}

// ProbeEach calls fn with the slot and row of every row visible to the
// view whose ix columns encode to enc (the canonical encoding of the
// probed values, in ix.Cols order), using the index if the table has
// it and scanning otherwise. fn returning false stops the enumeration.
// The matching rows are collected under the read lock and yielded
// outside it, so fn may freely query this or other tables. fn must not
// mutate the rows.
func (t *Table) ProbeEach(ix Index, enc []byte, fn func(slot int, row model.Tuple) bool) {
	var stack [16]slotRow
	for _, m := range t.probeEncoded(stack[:0], ix, enc) {
		if !fn(m.slot, m.row) {
			return
		}
	}
}

// Probe returns the rows whose ix columns equal vals, using the index
// if the table has it and scanning otherwise.
func (t *Table) Probe(ix Index, vals []model.Datum) []model.Tuple {
	// Local buffer, not s.keyBuf: a read path, safe under concurrent
	// readers.
	var buf [64]byte
	enc := buf[:0]
	for _, v := range vals {
		enc = model.AppendDatum(enc, v)
	}
	matches := t.probeEncoded(nil, ix, enc)
	out := make([]model.Tuple, len(matches))
	for i, m := range matches {
		out[i] = m.row
	}
	return out
}

// slotRow is one probe match: the slot and the row it holds.
type slotRow struct {
	slot int
	row  model.Tuple
}

// probeEncoded appends the rows visible to the view whose ix columns
// encode to enc.
func (t *Table) probeEncoded(out []slotRow, ix Index, enc []byte) []slotRow {
	s := t.s
	s.mu.RLock()
	if h, ok := s.indexes[ix.name]; ok {
		for _, i := range h.buckets[string(enc)] {
			if row, ok := s.liveRow(i, t.asOf); ok {
				out = append(out, slotRow{i, row})
			}
		}
	} else {
		for i, slots := 0, s.be.Slots(); i < slots; i++ {
			if row, ok := s.liveRow(i, t.asOf); ok && encodeCols(row, ix.Cols) == string(enc) {
				out = append(out, slotRow{i, row})
			}
		}
	}
	s.mu.RUnlock()
	return out
}

// Rows returns the live rows. The returned slice is freshly allocated
// but shares the underlying tuples; callers must not mutate them.
func (t *Table) Rows() []model.Tuple {
	s := t.s
	s.mu.RLock()
	out := make([]model.Tuple, 0, s.live)
	for i, slots := 0, s.be.Slots(); i < slots; i++ {
		if row, ok := s.liveRow(i, t.asOf); ok {
			out = append(out, row)
		}
	}
	s.mu.RUnlock()
	return out
}

// iterateBatch is Iterate's refill size: rows are collected under the
// read lock in batches of this many and yielded outside it, bounding
// how long a scan can hold the lock while letting callbacks query
// tables without re-entering it.
const iterateBatch = 64

// Iterate calls fn for every live row, stopping early if fn returns
// false; a plan's Scan runs on it. Rows are yielded outside the table
// lock in small batches, so fn may query this table (a provenance
// self-join) even while a writer waits on it; fn must not mutate the
// rows. On the writer view, rows inserted by fn itself may or may not
// be visited; on a snapshot view Iterate sees exactly the pinned epoch.
func (t *Table) Iterate(fn func(model.Tuple) bool) {
	t.EachSlot(func(_ int, row model.Tuple) bool { return fn(row) })
}

// EachSlot is Iterate also passing each row's slot.
func (t *Table) EachSlot(fn func(slot int, row model.Tuple) bool) {
	s := t.s
	var batch [iterateBatch]slotRow
	pos := 0
	for {
		s.mu.RLock()
		slots := s.be.Slots()
		n := 0
		for pos < slots && n < len(batch) {
			if row, ok := s.liveRow(pos, t.asOf); ok {
				batch[n] = slotRow{pos, row}
				n++
			}
			pos++
		}
		done := pos >= slots
		s.mu.RUnlock()
		for _, m := range batch[:n] {
			if !fn(m.slot, m.row) {
				return
			}
		}
		if done {
			return
		}
	}
}

// SortedRows returns the live rows in lexicographic datum order;
// used for deterministic output in tests and the CLI.
func (t *Table) SortedRows() []model.Tuple {
	out := t.Rows()
	sort.Slice(out, func(i, j int) bool { return compareRows(out[i], out[j]) < 0 })
	return out
}

func compareRows(a, b model.Tuple) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := model.Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	return len(a) - len(b)
}

func encodeCols(row model.Tuple, cols []int) string {
	var sb strings.Builder
	for _, c := range cols {
		model.EncodeDatum(&sb, row[c])
	}
	return sb.String()
}
