// This file is the path executor (backend "path"): the physical-plan
// pipeline running over pathView, a physplan.Graph bound to one
// query's pinned snapshot. The view answers the operators' navigation
// calls straight from the relstore tables — probing the provenance
// relations' secondary indexes for a tuple's incoming derivations
// instead of following materialized adjacency lists — and addresses
// what it reads by storage position: a tuple by (table ordinal,
// slot), a derivation by (provenance table ordinal, slot). No
// provgraph is built. What a query makes of its own — handles, the
// lists it resolved one handle at a time — goes with it; what its
// dense reads resolved of whole tables depends on the snapshot alone,
// and is shared with the next queries that read the same epoch
// (denseCache).

package proql

import (
	"fmt"
	"hash/maphash"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"

	"repro/internal/exchange"
	"repro/internal/model"
	"repro/internal/proql/physplan"
	"repro/internal/relstore"
)

// execPath evaluates a query on the path executor over a view of the
// snapshot it pins: the live epoch when asOf is 0, the retained epoch
// asOf otherwise. The snapshot is released when the query returns.
func (e *Engine) execPath(q *Query, asOf uint64) (*Result, error) {
	v, release, err := e.bindPathView(asOf)
	if err != nil {
		return nil, err
	}
	defer release()
	return e.execPhys(q, v, asOf)
}

// bindPathView pins the snapshot a query reads and binds a view to it;
// the caller runs release once the query is done with the view, which
// shares what the view resolved of whole tables (denseCache.release).
func (e *Engine) bindPathView(asOf uint64) (*pathView, func(), error) {
	snap, unpin, err := e.snapshotAt(asOf)
	if err != nil {
		return nil, nil, err
	}
	v := e.views.get()
	v.sys, v.epoch, v.version = snap, snap.DB.Epoch(), snap.DB.Version()
	v.shared = &e.dense
	return v, func() {
		e.dense.release(v)
		unpin()
		e.views.put(v)
	}, nil
}

// denseCache holds, by table ordinal, the dense tables the path views
// of one (epoch, definition version) resolved: the generation of the
// newest pair a view read. A table is immutable once here, so any
// number of views read it at once. Two snapshots of one pair read the
// same rows in the same slots, so a view takes a table only when its
// own snapshot is of that pair (get); the first view of a newer pair —
// after a commit or a definition change — retires the generation and
// builds its tables again. Nothing notifies it. Once no view reads a
// retired generation, its tables are emptied into spare, and the next
// builds of the same tables refill their arrays.
type denseCache struct {
	mu  sync.Mutex
	gen *denseGen
	// spare holds, by table ordinal, emptied tables of retired
	// generations; spareHeld is the bytes their arrays hold.
	spare     []*denseTable
	spareHeld int
}

// denseGen is the generation of one (epoch, definition version).
type denseGen struct {
	epoch, version uint64
	tabs           []*denseTable
	// users counts the views that took a table of it and are not
	// released yet.
	users int
}

// genOf returns the generation of v's pair: the held one, or a new one
// that retires it when v's pair is newer; nil when v read an older pair
// — an older epoch (an AS OF read, a read that pinned before the last
// commit) or, at one epoch, an older definition version. Callers hold
// c.mu.
func (c *denseCache) genOf(v *pathView) *denseGen {
	g := c.gen
	switch {
	case g == nil || v.epoch > g.epoch || v.epoch == g.epoch && v.version > g.version:
		if g != nil && g.users == 0 {
			c.recycle(g)
		}
		c.gen = &denseGen{epoch: v.epoch, version: v.version}
		return c.gen
	case v.epoch == g.epoch && v.version == g.version:
		return g
	}
	return nil
}

// get returns the shared dense table with ordinal ord for view v, if
// one was published for v's pair, counting v as a user of its
// generation.
func (c *denseCache) get(v *pathView, ord int) *denseTable {
	c.mu.Lock()
	defer c.mu.Unlock()
	g := c.genOf(v)
	if g == nil || ord >= len(g.tabs) || g.tabs[ord] == nil {
		return nil
	}
	if v.gen == nil {
		v.gen = g
		g.users++
	}
	return g.tabs[ord]
}

// take returns a table for a build of the table with ordinal ord to
// fill: an emptied one from spare, or a new one.
func (c *denseCache) take(ord int) *denseTable {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ord < len(c.spare) && c.spare[ord] != nil {
		t := c.spare[ord]
		c.spare[ord] = nil
		c.spareHeld -= t.held()
		return t
	}
	return &denseTable{}
}

// release publishes what v resolved, unless v failed, and ends v's use
// of the generation it took tables from.
func (c *denseCache) release(v *pathView) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if v.err == nil {
		c.publish(v)
	}
	if g := v.gen; g != nil {
		if g.users--; g.users == 0 && g != c.gen {
			c.recycle(g)
		}
	}
}

// publish shares the dense tables v built or extended, unless they name
// per-query state (denseTable.private) or v read an older pair than the
// held generation (genOf). At one pair, a table replaces the held one
// when it resolved more of it. It costs one step per table v read.
func (c *denseCache) publish(v *pathView) {
	g := c.genOf(v)
	if g == nil {
		return
	}
	for _, r := range v.rels {
		if r == nil || r.dense == nil || !r.dense.own || r.dense.private {
			continue
		}
		t := r.dense.denseTable
		if r.ord >= len(g.tabs) {
			g.tabs = slices.Grow(g.tabs, r.ord+1-len(g.tabs))[:r.ord+1]
		}
		if old := g.tabs[r.ord]; old == nil || !old.resolved && !old.edged && (t.resolved || t.edged) {
			g.tabs[r.ord] = t
		}
	}
}

// recycle empties the tables of g, retired and read by no view, into
// spare, each in place of the one spare held for its ordinal, while
// spare holds at most spareBytes.
func (c *denseCache) recycle(g *denseGen) {
	for ord, t := range g.tabs {
		if t == nil {
			continue
		}
		if ord >= len(c.spare) {
			c.spare = slices.Grow(c.spare, ord+1-len(c.spare))[:ord+1]
		}
		if old := c.spare[ord]; old != nil {
			c.spareHeld -= old.held()
		}
		c.spare[ord] = nil
		if c.spareHeld+t.held() <= spareBytes {
			c.spare[ord] = t.empty()
			c.spareHeld += t.held()
		}
	}
	g.tabs = nil
}

// spareViews keeps the views of finished path queries for the next
// ones, at most one per processor, with the capacity of their per-query
// arrays: the handle slab, the lists, the resolve scratch and the
// arrays of an EVALUATE (annotation). A view whose arrays hold more
// than spareBytes is dropped, so a large query's memory goes with it.
type spareViews struct {
	mu    sync.Mutex
	views []*pathView
}

// spareBytes bounds the arrays one kept view holds, and the emptied
// tables denseCache keeps.
var spareBytes = 16 << 20

func (s *spareViews) get() *pathView {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.views)
	if n == 0 {
		return &pathView{}
	}
	v := s.views[n-1]
	s.views = s.views[:n-1]
	return v
}

func (s *spareViews) put(v *pathView) {
	if !v.recycle() {
		return
	}
	s.mu.Lock()
	if len(s.views) < runtime.GOMAXPROCS(0) {
		s.views = append(s.views, v)
	}
	s.mu.Unlock()
}

// recycle clears v for another query, keeping its per-query arrays; it
// reports false when they hold more than spareBytes.
func (v *pathView) recycle() bool {
	v.nodes.reset()
	v.tabs.reset()
	clear(v.loose)
	clear(v.keys)
	clear(v.rels)
	nums := v.nums
	if len(nums) > maxSpareNums {
		nums = nil // a map keeps its buckets once grown
	}
	clear(nums)
	v.hnums.reset()
	v.ann.recycle()
	*v = pathView{refs: v.refs, fill: v.fill, hnums: v.hnums, nodes: v.nodes, tabs: v.tabs,
		rels: v.rels[:0], nums: nums, lists: v.lists[:0], loose: v.loose[:0], ann: v.ann,
		key: v.key[:0], vals: v.vals[:0], enc: v.enc[:0], keys: v.keys[:0]}
	return v.held() <= spareBytes
}

// maxSpareNums bounds the sparse handles whose map a recycled view
// keeps.
const maxSpareNums = 1 << 12

// held is the size in bytes of the arrays a recycled view keeps.
func (v *pathView) held() int {
	return 8*(cap(v.refs)+cap(v.rels)) + 16*cap(v.keys) + 4*(cap(v.fill)+cap(v.lists)+cap(v.hnums.buf)) + 24*(cap(v.loose)+v.nodes.elems()) + 128*v.tabs.elems() +
		v.ann.held()
}

// reuse returns s with n zeroed elements, in place when its capacity
// allows.
func reuse[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// pathView implements physplan.Graph over the provenance relations of
// one pinned snapshot, for one query on one goroutine. A slot is
// released only once no snapshot can see its version, so within the
// pinned snapshot (table ordinal, slot) names one tuple or one
// derivation; the view makes at most one handle per such pair and
// query, and caches on it what the query resolved (a tuple's incoming
// derivations, a derivation's sources and targets) as lists of handle
// numbers.
//
// A table is read sparsely at first, through the shared primary key
// and secondary indexes: a point query costs a few probes. A query that
// keeps reading one relation — a whole-relation walk reaches every
// tuple — goes dense on it once its reads have cost about one scan: it
// scans the relation once, hashing its tuples on the key, and resolves
// the incoming derivations of all of them in one scan of each
// provenance table whose head produces the relation. That is the choice
// a relational plan makes between an index join and a hash join: the
// scans read memory in order where the probes miss the cache each. A
// dense table addresses its rows by position (slot order); handles for
// them are made when the walk reaches them.
type pathView struct {
	sys            *exchange.System // snapshot view; reads are epoch-frozen
	epoch, version uint64           // the snapshot's epoch and definition version
	// shared holds the dense tables earlier views of the same epoch
	// resolved (denseCache); gen is the generation v took tables from.
	shared *denseCache
	gen    *denseGen

	nodes slab[pathNode] // the handles, by number
	tabs  slab[pathRel]
	rels  []*pathRel // by table ordinal, bound on first use
	// loose holds the rows read sparsely, each at the handle position
	// ^i its handle records.
	loose []model.Tuple
	// nums numbers the handles of rows read sparsely by (table ordinal,
	// slot).
	nums map[uint64]int32
	// lists holds the lists of handle numbers resolved one handle at a
	// time (outside a resolved table), back to back, each after its
	// length: a handle's list l > 0 is lists[l:l+lists[l-1]].
	lists []int32

	// virt holds the table of each virtual (superfluous) mapping the
	// query reconstructed (provRel).
	virt map[*exchange.ProvRel]*pathRel
	// dangling numbers the tuples a derivation names that the snapshot
	// does not store, by table ordinal and key encoding.
	dangling map[string]int32

	key, vals []model.Datum // probe scratch
	enc       []byte        // key encoding scratch
	// keys holds the keys of the tuples found by key lookups
	// (pathNode.keyAt), so their incoming derivations are probed
	// without reading their rows again.
	keys  []model.Datum
	refs  []uint64 // resolve scratch
	fill  []int32
	hnums arena // the dense tables' hnum arrays
	// ann holds an EVALUATE's arrays (annotatePath).
	ann annotation

	err error
}

// pathRel is one table as a query reads it: a relation (rel set, with
// the probes that find its incoming derivations) or a mapping's
// provenance table (prov set, tab nil for a virtual mapping).
type pathRel struct {
	ord    int
	tab    *relstore.Table
	rel    *model.Relation
	prov   *exchange.ProvRel
	probes []exchange.AtomProbe
	// key is set only on the copy a dangling tuple's handle points at:
	// that tuple's key encoding.
	key string

	// reads counts the sparse reads; at denseAt the table goes dense.
	// loose holds the rows read sparsely (pathView.loose), each at the
	// handle position ^i; sparse says some of r's rows are there.
	reads, denseAt int
	loose          *[]model.Tuple
	sparse         bool
	dense          *denseRows
}

// denseRows is a dense table as one query reads it: the table's
// query-independent arrays, shared between the views of one epoch, and
// the view's own numbering of its handles.
type denseRows struct {
	*denseTable
	// own says the view built denseTable or copied it to extend it: it
	// is not shared yet, and the view may write it.
	own  bool
	hnum []int32 // position → 1 + its handle's number, 0 until made
	// linked says the table is resolved and the view bound the tables
	// its resolution reads, dense: a relation's provenance tables by
	// probe (provs), resolved too, or a provenance table's relations by
	// atom (atoms).
	linked bool
	provs  []*pathRel
	atoms  []*pathRel
}

// denseTable is what a dense read of one table at one (epoch,
// definition version) resolves: its rows by position, in slot order,
// and once resolved, a relation's incoming derivations or a provenance
// table's source and target positions. Once shared (denseCache) it is
// never written again.
type denseTable struct {
	rows  []model.Tuple
	slots []int32
	hash  keyHash // a relation's positions by key
	// A resolved relation's incoming derivations: position i's are
	// in[off[i]:off[i+1]], each an inRef into the provenance table its
	// probe reads.
	resolved bool
	off, in  []int32
	// A resolved provenance table's source then target tuples, natoms
	// per position: a position in the atom's relation, or ^n for the
	// handle numbered n of a tuple the snapshot does not store.
	edged bool
	edges []int32
	// private says the table names what only its query knows: the
	// handle of a tuple the snapshot does not store (edges), or a
	// virtual mapping's reconstructed rows. It is never shared.
	private bool
}

// mutable makes dr's table the view's own to write, copying it if it is
// shared. It is called before a resolution, whose arrays the copy does
// not hold yet: it shares the rows, slots and hash alone.
func (dr *denseRows) mutable() {
	if !dr.own {
		t := *dr.denseTable
		t.off, t.in, t.edges = nil, nil, nil
		dr.denseTable, dr.own = &t, true
	}
}

// held is the size in bytes of t's arrays.
func (t *denseTable) held() int {
	return 24*cap(t.rows) + 4*(cap(t.slots)+cap(t.hash.head)+cap(t.hash.next)+cap(t.off)+cap(t.in)+cap(t.edges)) +
		8*cap(t.hash.ints)
}

// empty returns t emptied for a build to refill its arrays.
func (t *denseTable) empty() *denseTable {
	clear(t.rows) // rows the store may free
	return &denseTable{rows: t.rows[:0], slots: t.slots[:0],
		hash: keyHash{head: t.hash.head[:0], next: t.hash.next[:0], ints: t.hash.ints[:0]},
		off:  t.off[:0], in: t.in[:0], edges: t.edges[:0]}
}

// pathNode is a handle, a pathTuple or a pathDeriv: the row at
// handle position pos of rel — its position in the dense table, or ^i
// for (*rel.loose)[i] (nil for a tuple the snapshot does not store).
// list, once not 0, locates in lists a tuple's incoming derivations,
// or a derivation's source then target tuples; a handle of a resolved
// table reads them off the table instead.
type pathNode struct {
	rel  *pathRel
	pos  int32
	num  int32
	list int32
	// keyAt, once not 0, locates in keys the key of a tuple a key
	// lookup found: keys[keyAt-1:], as many datums as the key has.
	keyAt int32
}

type (
	pathTuple pathNode
	pathDeriv pathNode
)

// inRef packs an incoming derivation of a resolved relation: the index
// of the probe that found it (4 bits) and its position in that probe's
// provenance table, provs[probe].
func inRef(probe int, pos int) int32 { return int32(uint32(probe)<<28 | uint32(pos)) }

func splitInRef(ref int32) (probe int, pos int32) {
	return int(uint32(ref) >> 28), int32(uint32(ref) & (1<<28 - 1))
}

// rowAt returns the row at handle position pos of r.
func (r *pathRel) rowAt(pos int32) model.Tuple {
	if pos < 0 {
		return (*r.loose)[^pos]
	}
	return r.dense.rows[pos]
}

// keyHash is a dense relation's positions hashed on the relation key:
// chained buckets. When the key is one column holding an int64 in every
// row, ints holds those values, and a lookup compares them without
// reading the rows.
type keyHash struct {
	mask uint64
	head []int32 // bucket → 1 + its first position
	next []int32 // position → 1 + the next position in its bucket
	ints []int64 // position → key
}

func (v *pathView) fail(err error) {
	if v.err == nil {
		v.err = err
	}
}

// Err implements physplan.Graph.
func (v *pathView) Err() error { return v.err }

// TupleRef implements physplan.Tuple.
func (t *pathTuple) TupleRef() model.TupleRef {
	row := t.TupleRow()
	if row == nil {
		return model.TupleRef{Rel: t.rel.rel.Name, Key: t.rel.key}
	}
	var buf [64]byte
	enc := buf[:0]
	for _, c := range t.rel.rel.Key {
		enc = model.AppendDatum(enc, row[c])
	}
	return model.TupleRef{Rel: t.rel.rel.Name, Key: string(enc)}
}

// TupleRel implements physplan.Tuple.
func (t *pathTuple) TupleRel() string { return t.rel.rel.Name }

// TupleOrd implements physplan.Tuple.
func (t *pathTuple) TupleOrd() int { return int(t.num) }

// TupleRow implements physplan.Tuple.
func (t *pathTuple) TupleRow() model.Tuple { return t.rel.rowAt(t.pos) }

// DerivOrd implements physplan.Deriv.
func (d *pathDeriv) DerivOrd() int { return int(d.num) }

// DerivMapping implements physplan.Deriv.
func (d *pathDeriv) DerivMapping() string { return d.rel.prov.Mapping.Name }

// DerivRow implements physplan.Deriv.
func (d *pathDeriv) DerivRow() model.Tuple { return d.rel.rowAt(d.pos) }

// rel returns the table with ordinal ord as the view reads it.
func (v *pathView) rel(ord int) (*pathRel, bool) {
	if ord < len(v.rels) && v.rels[ord] != nil {
		return v.rels[ord], true
	}
	tab, ok := v.sys.DB.TableAt(ord)
	if !ok {
		v.fail(fmt.Errorf("proql: no table with ordinal %d", ord))
		return nil, false
	}
	r := v.newRel() // zero: set only what is not
	r.ord, r.tab, r.loose = ord, tab, &v.loose
	if role := v.sys.Role(ord); role != nil {
		r.rel, r.probes, r.prov = role.Rel, role.Incoming, role.Prov
	}
	if ord >= len(v.rels) {
		v.rels = slices.Grow(v.rels, ord+1-len(v.rels))[:ord+1]
	}
	v.rels[ord] = r
	return r, true
}

// relNamed returns the table of a public relation, if the query may
// start a path there.
func (v *pathView) relNamed(name string) (*pathRel, bool) {
	rel, ok := v.sys.Schema.Relation(name)
	if !ok || rel.IsLocal {
		return nil, false
	}
	tab, ok := v.sys.DB.Table(name)
	if !ok {
		return nil, false
	}
	return v.rel(tab.Ord())
}

// slab hands out numbered elements of chunks that never move, so an
// element's address stays valid while more are added. Chunk k holds
// 16<<k elements, numbered from 16<<k - 16: a point query's few
// handles take one small chunk.
type slab[T any] struct {
	c [][]T
	n int32 // the elements handed out
}

// add hands out a zero element, returning its number and address.
func (s *slab[T]) add() (int32, *T) {
	n := s.n
	if k := bits.Len32(uint32(n/16+1)) - 1; k == len(s.c) {
		s.c = append(s.c, make([]T, 16<<k))
	}
	s.n++
	return n, s.at(n)
}

// at returns element n.
func (s *slab[T]) at(n int32) *T {
	k := bits.Len32(uint32(n/16+1)) - 1
	return &s.c[k][n-(16<<k-16)]
}

// reset zeroes the elements handed out and takes them back.
func (s *slab[T]) reset() {
	for k, c := range s.c {
		if 16<<k-16 < int(s.n) {
			clear(c)
		}
	}
	s.n = 0
}

// elems is the number of elements the chunks hold.
func (s *slab[T]) elems() int { return 16<<len(s.c) - 16 }

// arena hands out zeroed int32 arrays from one buffer that outgrows
// what a query takes, so the next query on the view takes its arrays
// from the buffer the last one grew.
type arena struct {
	buf  []int32
	used int
}

// take returns n zeroed elements.
func (a *arena) take(n int) []int32 {
	if a.used+n > len(a.buf) {
		// The arrays taken so far keep the old buffer.
		a.buf, a.used = make([]int32, max(2*len(a.buf), n, 1024)), 0
	}
	s := a.buf[a.used : a.used+n : a.used+n]
	a.used += n
	return s
}

// reset zeroes what was taken from the buffer and takes it back.
func (a *arena) reset() {
	clear(a.buf[:a.used])
	a.used = 0
}

// newHandle makes a handle for the row at handle position pos of r.
func (v *pathView) newHandle(r *pathRel, pos int32) int32 {
	n, h := v.nodes.add()
	*h = pathNode{rel: r, pos: pos, num: n}
	return n
}

// newRel returns a zero pathRel of the view's.
func (v *pathView) newRel() *pathRel {
	_, r := v.tabs.add()
	return r
}

func (v *pathView) tuple(n int32) *pathTuple { return (*pathTuple)(v.nodes.at(n)) }
func (v *pathView) deriv(n int32) *pathDeriv { return (*pathDeriv)(v.nodes.at(n)) }

// listAt returns the list that list number l locates.
func (v *pathView) listAt(l int32) []int32 { return v.lists[l : l+v.lists[l-1]] }

// handle returns the number of the handle of row, at slot of r.
func (v *pathView) handle(r *pathRel, slot int, row model.Tuple) int32 {
	if r.dense != nil {
		if i, ok := slices.BinarySearch(r.dense.slots, int32(slot)); ok {
			return v.handleAt(r, int32(i))
		}
	}
	code := uint64(r.ord)<<32 | uint64(slot)
	if n, ok := v.nums[code]; ok {
		return n
	}
	v.loose = append(v.loose, row)
	r.sparse = true
	n := v.newHandle(r, ^int32(len(v.loose)-1))
	if v.nums == nil {
		v.nums = make(map[uint64]int32, 16)
	}
	v.nums[code] = n
	return n
}

// handleAt returns the number of the handle of position pos of dense
// table r, making it on first use.
func (v *pathView) handleAt(r *pathRel, pos int32) int32 {
	dr := r.dense
	if n := dr.hnum[pos]; n != 0 {
		return n - 1
	}
	n := v.newHandle(r, pos)
	dr.hnum[pos] = n + 1
	return n
}

// densify reads r in one scan, unless an earlier view of the same
// epoch shared what its scan read: r's rows by position, hashed on the
// key for a relation. Handles made for rows read sparsely keep their
// numbers.
func (v *pathView) densify(r *pathRel) *denseRows {
	if r.dense != nil {
		return r.dense
	}
	dr := &denseRows{denseTable: v.shared.get(v, r.ord)}
	if dr.denseTable == nil {
		n := r.tab.Slots()
		t := v.shared.take(r.ord)
		t.rows, t.slots = slices.Grow(t.rows, n), slices.Grow(t.slots, n)
		r.tab.EachSlot(func(slot int, row model.Tuple) bool {
			t.rows = append(t.rows, row)
			t.slots = append(t.slots, int32(slot))
			return true
		})
		if r.rel != nil {
			buildHash(&t.hash, t.rows, r.rel.Key)
		}
		dr.denseTable, dr.own = t, true
	}
	dr.hnum = v.hnums.take(len(dr.rows))
	if r.sparse {
		for i, slot := range dr.slots {
			if n, ok := v.nums[uint64(r.ord)<<32|uint64(slot)]; ok {
				dr.hnum[i] = n + 1
				v.nodes.at(n).pos = int32(i)
			}
		}
	}
	r.dense = dr
	return dr
}

// read counts one more sparse read of r, making r dense on the read
// that reaches denseAt.
func (v *pathView) read(r *pathRel) *denseRows {
	if r.dense == nil {
		if r.denseAt == 0 {
			// Resolving a tuple sparsely (a key lookup, then the probes
			// for its incoming derivations: two reads) costs some seven
			// times its share of reading the relation densely (E34),
			// so a table goes dense after reads of about a third of
			// its slots.
			r.denseAt = max(16, r.tab.Slots()/3)
			if slices.ContainsFunc(r.probes, func(p exchange.AtomProbe) bool { return p.Prov.Virtual }) {
				// A virtual mapping's rows are rebuilt by a scan anyway,
				// and a probe into them is a scan of its own.
				r.denseAt = 1
			}
		}
		if r.reads++; r.reads < r.denseAt {
			return nil
		}
		v.densify(r)
	}
	return r.dense
}

func buildHash(h *keyHash, rows []model.Tuple, key []int) {
	size := 16
	for size < len(rows) {
		size <<= 1
	}
	h.mask = uint64(size - 1)
	h.head, h.next = reuse(h.head, size), reuse(h.next, len(rows))
	ints := h.ints
	h.ints = nil
	if len(key) == 1 {
		h.ints = reuse(ints, len(rows))
	}
	// Inserting from the end leaves each bucket in position order.
	for i := len(rows) - 1; i >= 0; i-- {
		var hv uint64
		for _, c := range key {
			hv = mixDatum(hv, rows[i][c])
		}
		b := hv & h.mask
		h.next[i], h.head[b] = h.head[b], int32(i+1)
		if h.ints != nil {
			k, ok := rows[i][key[0]].(int64)
			if !ok {
				h.ints = nil
				continue
			}
			h.ints[i] = k
		}
	}
}

// find returns the position of the tuple of dense relation r whose key
// is key (datums in key order), or -1.
func (h *keyHash) find(r *pathRel, key []model.Datum) int32 {
	var hv uint64
	for _, d := range key {
		hv = mixDatum(hv, d)
	}
	e := h.head[hv&h.mask]
	if h.ints != nil {
		k, ok := key[0].(int64)
		for ; ok && e != 0; e = h.next[e-1] {
			if h.ints[e-1] == k {
				return e - 1
			}
		}
		return -1
	}
next:
	for ; e != 0; e = h.next[e-1] {
		row := r.dense.rows[e-1]
		for i, c := range r.rel.Key {
			if !model.Equal(row[c], key[i]) {
				continue next
			}
		}
		return e - 1
	}
	return -1
}

// datumSeed seeds the hashing of string datums.
var datumSeed = maphash.MakeSeed()

// mixDatum folds one datum into a hash. Datums that model.Equal holds
// equal hash equal.
func mixDatum(h uint64, d model.Datum) uint64 {
	var x uint64
	switch d := d.(type) {
	case int64:
		x = uint64(d)
	case float64:
		x = math.Float64bits(d)
	case string:
		x = maphash.String(datumSeed, d)
	case bool:
		if d {
			x = 1
		}
	}
	h = (h ^ x) * 0x9e3779b97f4a7c15
	return h ^ h>>29
}

// lookupKey returns the number of the handle of r's tuple whose key is
// key (datums in the relation's key order), if r stores one.
func (v *pathView) lookupKey(r *pathRel, key []model.Datum) (int32, bool) {
	if dr := v.read(r); dr != nil {
		if pos := dr.hash.find(r, key); pos >= 0 {
			return v.handleAt(r, pos), true
		}
		return 0, false
	}
	v.enc = model.AppendDatums(v.enc[:0], key)
	slot, row, ok := r.tab.LookupKeySlot(v.enc)
	if !ok {
		return 0, false
	}
	n := v.handle(r, slot, row)
	if h := v.nodes.at(n); h.keyAt == 0 {
		h.keyAt = int32(len(v.keys)) + 1
		v.keys = append(v.keys, key...)
	}
	return n, true
}

// eachEdge passes the handles of d's atoms from..to (sources then
// targets) to yield: off its table once that is resolved, else from a
// list resolved by key lookups and kept on d (edgeList).
func (v *pathView) eachEdge(d *pathDeriv, from, to int, yield func(int32) bool) {
	if dr := v.edged(d); dr != nil {
		atoms := len(dr.atoms)
		for j, e := range dr.edges[int(d.pos)*atoms:][from:to] {
			n := ^e
			if e >= 0 {
				n = v.handleAt(dr.atoms[from+j], e)
			}
			if !yield(n) {
				return
			}
		}
		return
	}
	for _, n := range v.edgeList(d, from, to) {
		if !yield(n) {
			return
		}
	}
}

// appendEdges appends the handles of all of d's atoms, sources then
// targets, to buf, as eachEdge passes them.
func (v *pathView) appendEdges(buf []int32, d *pathDeriv) []int32 {
	if dr := v.edged(d); dr != nil {
		atoms := len(dr.atoms)
		for j, e := range dr.edges[int(d.pos)*atoms:][:atoms] {
			n := ^e
			if e >= 0 {
				n = v.handleAt(dr.atoms[j], e)
			}
			buf = append(buf, n)
		}
		return buf
	}
	pr := d.rel.prov
	return append(buf, v.edgeList(d, 0, len(pr.Sources)+len(pr.Targets))...)
}

// edged returns d's dense table if its edges are resolved, binding
// those a shared table holds; nil for a derivation read sparsely.
func (v *pathView) edged(d *pathDeriv) *denseRows {
	if d.pos < 0 {
		return nil
	}
	if dr := d.rel.dense; dr.linked || dr.edged && v.resolveEdges(d.rel) {
		return dr
	}
	return nil
}

// unresolvedEdge marks an atom of a list edgeList has not looked up.
const unresolvedEdge = -1

// edgeList returns the handles of d's atoms from..to (sources then
// targets), kept on d. Each atom is resolved by a key lookup when it
// is first asked for: a walk up the provenance reads a derivation's
// sources only, and its target is the tuple the walk came from. Nil
// after a failure.
func (v *pathView) edgeList(d *pathDeriv, from, to int) []int32 {
	pr := d.rel.prov
	if d.list == 0 {
		atoms := len(pr.Sources) + len(pr.Targets)
		off := len(v.lists)
		v.lists = append(v.lists, int32(atoms))
		for range atoms {
			v.lists = append(v.lists, unresolvedEdge)
		}
		d.list = int32(off + 1)
	}
	at := int(d.list) + from
	for j := at; j < int(d.list)+to; j++ {
		if v.lists[j] != unresolvedEdge {
			continue
		}
		a := v.atom(pr, j-int(d.list))
		r, ok := v.rel(a.Table)
		if !ok {
			return nil
		}
		v.key = a.AppendDatums(v.key[:0], d.DerivRow())
		n, ok := v.lookupKey(r, v.key)
		if !ok {
			n = v.danglingTuple(r, v.key)
		}
		v.lists[j] = n
	}
	return v.lists[at : int(d.list)+to]
}

// atom returns atom j of pr's sources then targets.
func (v *pathView) atom(pr *exchange.ProvRel, j int) *exchange.AtomKey {
	if j < len(pr.Sources) {
		return &pr.Sources[j]
	}
	return &pr.Targets[j-len(pr.Sources)]
}

// danglingTuple returns the number of the handle of a tuple the
// snapshot does not store.
func (v *pathView) danglingTuple(r *pathRel, key []model.Datum) int32 {
	enc := model.EncodeDatums(key)
	k := fmt.Sprintf("%d|%s", r.ord, enc)
	if n, ok := v.dangling[k]; ok {
		return n
	}
	at := v.newRel()
	*at = pathRel{ord: r.ord, tab: r.tab, rel: r.rel, probes: r.probes, key: enc, loose: &v.loose}
	v.loose = append(v.loose, nil)
	n := v.newHandle(at, ^int32(len(v.loose)-1))
	if v.dangling == nil {
		v.dangling = map[string]int32{}
	}
	v.dangling[k] = n
	return n
}

// resolved reports whether t's relation is resolved, reading it once
// more and resolving it once that makes it dense.
func (v *pathView) resolved(t *pathTuple) bool {
	return t.rel.key == "" && v.read(t.rel) != nil && t.pos >= 0 && v.resolve(t.rel)
}

// incoming returns the numbers of the derivations targeting a tuple of
// an unresolved relation, by probing the provenance relations whose
// head can produce t's relation — the goal-directed reverse step — on
// the head-key columns. The list stays on t for the rest of the query.
func (v *pathView) incoming(t *pathTuple) []int32 {
	if t.list != 0 {
		return v.listAt(t.list)
	}
	if len(t.rel.probes) == 0 {
		return nil // no mapping's head produces t's relation
	}
	var key []model.Datum
	if t.keyAt != 0 {
		key = v.keys[t.keyAt-1 : int(t.keyAt-1)+len(t.rel.rel.Key)]
	} else if row := t.TupleRow(); row != nil {
		key = v.key[:0]
		for _, c := range t.rel.rel.Key {
			key = append(key, row[c])
		}
		v.key = key
	} else {
		var err error
		if key, err = model.DecodeDatums(t.rel.key); err != nil {
			v.fail(err)
			return nil
		}
	}
	off := len(v.lists)
	v.lists = append(v.lists, 0)
	for i := range t.rel.probes {
		p := &t.rel.probes[i]
		if !p.Matches(key) {
			continue
		}
		v.vals = p.ProbeVals(v.vals, key)
		v.eachProvRow(p, v.vals, func(d int32) {
			if !slices.Contains(v.lists[off+1:], d) { // a mapping with two heads in t's relation
				v.lists = append(v.lists, d)
			}
		})
		if v.err != nil {
			v.lists = v.lists[:off]
			return nil
		}
	}
	v.lists[off] = int32(len(v.lists) - off - 1)
	t.list = int32(off + 1)
	return v.listAt(t.list)
}

// resolve resolves dense relation r: every provenance table whose head
// produces r is scanned once, each row's head key looked up in r's key
// hash, and its source and target tuples — their tables read densely
// too — recorded by position while the row is at hand. A relation an
// earlier view of the epoch resolved only has its provenance tables
// bound, as its resolution read them.
func (v *pathView) resolve(r *pathRel) bool {
	dr := r.dense
	if dr.linked {
		return true
	}
	if len(r.probes) > 16 {
		return false // more than an inRef holds
	}
	provs := make([]*pathRel, len(r.probes))
	for i := range r.probes {
		pr, ok := v.provRel(r.probes[i].Prov)
		if !ok || len(v.densify(pr).rows) > 1<<28 || !v.resolveEdges(pr) {
			return false
		}
		provs[i] = pr
	}
	if !dr.resolved {
		v.resolveIn(dr, r.probes, provs)
	}
	dr.provs, dr.linked = provs, true
	return true
}

// resolveIn records the incoming derivations of every position of dr,
// a relation whose probes find them in the resolved provenance tables
// provs.
func (v *pathView) resolveIn(dr *denseRows, probes []exchange.AtomProbe, provs []*pathRel) {
	dr.mutable()
	refs := v.refs[:0] // position << 32 | inRef
	twice := false     // some mapping has two head atoms in the relation
	for i, pr := range provs {
		p := &probes[i]
		twice = twice || i > 0 && p.Prov == probes[i-1].Prov
		dr.private = dr.private || pr.ord < 0 // a virtual mapping's
		pdr := pr.dense
		atoms := len(p.Prov.Sources) + len(p.Prov.Targets)
		for pos := range pdr.rows {
			if e := pdr.edges[pos*atoms+p.Atom]; e >= 0 {
				refs = append(refs, uint64(e)<<32|uint64(uint32(inRef(i, pos))))
			}
		}
	}
	// Counting sort by position keeps each tuple's derivations in probe
	// then slot order.
	v.refs = refs
	off := reuse(dr.off, len(dr.rows)+1)
	for _, ref := range refs {
		off[ref>>32+1]++
	}
	for i := range dr.rows {
		off[i+1] += off[i]
	}
	in := reuse(dr.in, len(refs))
	fill := append(v.fill[:0], off[:len(dr.rows)]...)
	v.fill = fill
	for _, ref := range refs {
		pos := ref >> 32
		in[fill[pos]] = int32(uint32(ref))
		fill[pos]++
	}
	if twice {
		// Two probes of one mapping may find one derivation twice.
		dedup, from := in[:0], int32(0)
		for i := range dr.rows {
			at := len(dedup)
			for _, ref := range in[from:off[i+1]] {
				if !slices.Contains(dedup[at:], ref) {
					dedup = append(dedup, ref)
				}
			}
			from, off[i+1] = off[i+1], int32(len(dedup))
		}
		in = dedup
	}
	dr.off, dr.in, dr.resolved = off, in, true
}

// resolveEdges records, for every row of dense provenance table pr,
// the positions of its source and target tuples in their relations,
// which it reads densely. A table an earlier view of the epoch resolved
// only has its relations bound, as its resolution read them.
func (v *pathView) resolveEdges(pr *pathRel) bool {
	dr := pr.dense
	if dr.linked {
		return true
	}
	rels := make([]*pathRel, len(pr.prov.Sources)+len(pr.prov.Targets))
	for j := range rels {
		r, ok := v.rel(v.atom(pr.prov, j).Table)
		if !ok {
			return false
		}
		v.densify(r)
		rels[j] = r
	}
	if !dr.edged {
		dr.mutable()
		edges := slices.Grow(dr.edges, len(dr.rows)*len(rels))
		for _, row := range dr.rows {
			for j, r := range rels {
				v.key = v.atom(pr.prov, j).AppendDatums(v.key[:0], row)
				pos := r.dense.hash.find(r, v.key)
				if pos < 0 {
					pos = ^v.danglingTuple(r, v.key)
					dr.private = true
				}
				edges = append(edges, pos)
			}
		}
		dr.edges, dr.edged = edges, true
	}
	dr.atoms, dr.linked = rels, true
	return true
}

// eachProvRow passes the derivations of one probe whose probed columns
// equal vals to fn: from the materialized table's index, or by a scan
// of the reconstructed rows of a virtual mapping. An empty column set
// (an all-constant head key) matches every row.
func (v *pathView) eachProvRow(p *exchange.AtomProbe, vals []model.Datum, fn func(int32)) {
	r, ok := v.provRel(p.Prov)
	if !ok {
		return
	}
	if p.Prov.Virtual {
	rows:
		for pos, row := range r.dense.rows {
			for i, c := range p.Cols {
				if !model.Equal(row[c], vals[i]) {
					continue rows
				}
			}
			fn(v.handleAt(r, int32(pos)))
		}
		return
	}
	each := func(slot int, row model.Tuple) bool {
		fn(v.handle(r, slot, row))
		return true
	}
	if len(p.Cols) == 0 {
		r.tab.EachSlot(each)
		return
	}
	v.enc = model.AppendDatums(v.enc[:0], vals)
	r.tab.ProbeEach(p.Index, v.enc, each)
}

// provRel returns a mapping's provenance table as the view reads it. A
// virtual mapping's rows are reconstructed once per query and read
// densely: its derivations have no slot, and its ordinal -1-i numbers
// the query's virtual mappings.
func (v *pathView) provRel(pr *exchange.ProvRel) (*pathRel, bool) {
	if !pr.Virtual {
		return v.rel(pr.Table)
	}
	if r, ok := v.virt[pr]; ok {
		return r, true
	}
	rows, err := v.sys.ProvRows(pr.Mapping.Name)
	if err != nil {
		v.fail(err)
		return nil, false
	}
	if v.virt == nil {
		v.virt = map[*exchange.ProvRel]*pathRel{}
	}
	r := v.newRel()
	t := &denseTable{rows: rows, private: true}
	*r = pathRel{ord: -1 - len(v.virt), prov: pr, dense: &denseRows{denseTable: t, own: true, hnum: make([]int32, len(rows))}}
	v.virt[pr] = r
	return r, true
}

// eachIn passes the numbers of the derivations into t to yield: off
// t's relation once that is resolved, else from incoming.
func (v *pathView) eachIn(t *pathTuple, yield func(int32) bool) {
	if dr := t.rel.dense; dr != nil && dr.linked && t.pos >= 0 || v.resolved(t) {
		dr := t.rel.dense
		for _, ref := range dr.in[dr.off[t.pos]:dr.off[t.pos+1]] {
			i, pos := splitInRef(ref)
			if !yield(v.handleAt(dr.provs[i], pos)) {
				return
			}
		}
		return
	}
	for _, n := range v.incoming(t) {
		if !yield(n) {
			return
		}
	}
}

// EachDerivInto implements physplan.Graph. The view finds all of a
// tuple's incoming derivations and filters them by mapping.
func (v *pathView) EachDerivInto(t physplan.Tuple, mapping string, yield func(physplan.Deriv) bool) {
	if v.err != nil {
		return
	}
	v.eachIn(t.(*pathTuple), func(n int32) bool {
		d := v.deriv(n)
		return mapping != "" && d.rel.prov.Mapping.Name != mapping || yield(d)
	})
}

// EachDerivOf implements physplan.Graph.
func (v *pathView) EachDerivOf(mapping string, yield func(physplan.Deriv) bool) {
	pr, ok := v.sys.Prov[mapping]
	if v.err != nil || !ok {
		return
	}
	r, ok := v.provRel(pr)
	if !ok {
		return
	}
	for pos := range v.densify(r).rows {
		if !yield(v.deriv(v.handleAt(r, int32(pos)))) {
			return
		}
	}
}

// EachSource implements physplan.Graph.
func (v *pathView) EachSource(d physplan.Deriv, yield func(physplan.Tuple) bool) {
	if v.err != nil {
		return
	}
	pd := d.(*pathDeriv)
	v.eachEdge(pd, 0, len(pd.rel.prov.Sources), func(n int32) bool { return yield(v.tuple(n)) })
}

// EachTarget implements physplan.Graph.
func (v *pathView) EachTarget(d physplan.Deriv, yield func(physplan.Tuple) bool) {
	if v.err != nil {
		return
	}
	pd := d.(*pathDeriv)
	pr := pd.rel.prov
	v.eachEdge(pd, len(pr.Sources), len(pr.Sources)+len(pr.Targets), func(n int32) bool { return yield(v.tuple(n)) })
}

// EachTupleOf implements physplan.Graph: a relation scan makes its
// table dense.
func (v *pathView) EachTupleOf(rel string, yield func(physplan.Tuple) bool) {
	if v.err != nil {
		return
	}
	r, ok := v.relNamed(rel)
	if !ok {
		return
	}
	for pos := range v.densify(r).rows {
		if !yield(v.tuple(v.handleAt(r, int32(pos)))) {
			return
		}
	}
}

// TupleByKey implements physplan.Graph: one primary-key lookup on the
// pinned snapshot.
func (v *pathView) TupleByKey(rel string, key []model.Datum) (physplan.Tuple, bool) {
	if v.err != nil {
		return nil, false
	}
	r, ok := v.relNamed(rel)
	if !ok {
		return nil, false
	}
	n, ok := v.lookupKey(r, key)
	if !ok {
		return nil, false
	}
	return v.tuple(n), true
}

// EachTuple implements physplan.Graph.
func (v *pathView) EachTuple(yield func(physplan.Tuple) bool) {
	for _, r := range v.sys.Schema.PublicRelations() {
		cont := true
		v.EachTupleOf(r.Name, func(t physplan.Tuple) bool {
			cont = yield(t)
			return cont
		})
		if !cont || v.err != nil {
			return
		}
	}
}
