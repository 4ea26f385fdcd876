// This file is the goal-directed asr backend, the engine's one
// path-navigation executor (backend "graph" is an alias of it): the
// physical-plan pipeline with a storage adapter (asrGraph) answering
// the operators' navigation calls directly from the relstore tables of
// a pinned snapshot — probing the provenance relations' secondary
// indexes for a tuple's incoming derivations instead of following
// materialized adjacency lists. No provgraph is ever built: handles
// are interned lazily, so memory is proportional to the portion of the
// provenance graph the queries touch, not to the instance.

package proql

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/exchange"
	"repro/internal/model"
	"repro/internal/proql/physplan"
	"repro/internal/provgraph"
)

// execASR evaluates a query on the goal-directed asr backend: the
// physical-plan pipeline running directly over the provenance
// relations (and their secondary indexes) through an adapter that
// interns tuple and derivation handles on demand — no provenance graph
// is ever materialized. With asOf != 0 a private adapter is bound to a
// SnapshotAt view for just this query (history queries must not
// displace the warmed live adapter); the live path shares the engine's
// refcounted adapter.
func (e *Engine) execASR(q *Query, asOf uint64) (*Result, error) {
	g, release, err := e.asrAdapterAt(asOf)
	if err != nil {
		return nil, err
	}
	defer release()
	return e.execPhys(q, g, asOf)
}

// asrAdapterAt returns the adapter for one query and the function that
// releases it: the shared live adapter when asOf is 0, otherwise a
// private one pinned at the historical epoch.
func (e *Engine) asrAdapterAt(asOf uint64) (*asrGraph, func(), error) {
	if asOf == 0 {
		return e.asrAdapter()
	}
	snap, release, err := e.Sys.SnapshotAt(asOf)
	if err != nil {
		return nil, nil, err
	}
	g, err := e.newASRGraph(snap, asOf)
	if err != nil {
		release()
		return nil, nil, err
	}
	return g, release, nil
}

// newASRGraph binds a fresh adapter to a pinned snapshot at epoch.
func (e *Engine) newASRGraph(snap *exchange.System, epoch uint64) (*asrGraph, error) {
	probes := e.Sys.Probes()
	if probes == nil {
		var err error
		if probes, err = e.Sys.IncomingProbes(); err != nil {
			return nil, err
		}
	}
	return &asrGraph{
		sys:     snap,
		epoch:   epoch,
		probes:  probes,
		tuples:  map[model.TupleRef]*asrTuple{},
		derivs:  map[string]*asrDeriv{},
		virtIdx: map[string]map[string][]model.Tuple{},
	}, nil
}

// asrAdapter returns the engine's live adapter with a reference held;
// the caller must invoke the release function when its query is done.
// The adapter is bound to a pinned storage snapshot, so every query
// sharing it reads one consistent epoch no matter what commits
// concurrently. It stays shared for as long as the epoch does: the
// handles and scans it interns serve every later query at that epoch.
// When the storage epoch moves on (or RetireAdapter retires it), new
// queries get a fresh adapter and the old snapshot is released once
// its last in-flight query finishes.
func (e *Engine) asrAdapter() (*asrGraph, func(), error) {
	e.asrMu.Lock()
	defer e.asrMu.Unlock()
	if e.asr != nil && e.asr.epoch != e.Sys.DB.Epoch() {
		e.retireASRLocked()
	}
	if e.asr == nil {
		snap, release := e.Sys.Snapshot()
		g, err := e.newASRGraph(snap, snap.DB.Epoch())
		if err != nil {
			release()
			return nil, nil, err
		}
		g.release = release
		e.asr = g
	}
	g := e.asr
	g.refs++
	return g, func() { e.releaseASR(g) }, nil
}

// releaseASR drops one query's reference; the retired adapter's
// snapshot is released when the last reference goes.
func (e *Engine) releaseASR(g *asrGraph) {
	e.asrMu.Lock()
	g.refs--
	var rel func()
	if g.refs == 0 && g.retired && g.release != nil {
		rel, g.release = g.release, nil
	}
	e.asrMu.Unlock()
	if rel != nil {
		rel()
	}
}

// asrGraph implements physplan.Graph over an exchanged system's
// relational storage, reading through a pinned snapshot view. Handles
// intern into shared maps under mu, so concurrent queries can share
// one adapter.
type asrGraph struct {
	sys    *exchange.System // snapshot view; reads are epoch-frozen
	probes map[string][]exchange.IncomingProbe

	// release unpins the shared adapter's snapshot; refs/retired are
	// managed by the owning engine under its asrMu.
	release func()
	epoch   uint64
	refs    int
	retired bool

	// mu guards the interning maps, the lazy per-handle fields, the
	// memoized caches below, and err. It is never held while yielding
	// to physplan callbacks or while probing tables. The per-node
	// caches a path walk reads at every step (asrTuple.in,
	// asrDeriv.edges, failed) are atomics published once instead:
	// queries sharing the adapter on two cores slowed each other
	// through this lock without ever blocking on it.
	mu     sync.Mutex
	tuples map[model.TupleRef]*asrTuple
	derivs map[string]*asrDeriv
	ords   int // shared ordinal counter for tuples and derivations

	// virtRows caches the reconstructed provenance rows of virtual
	// (superfluous) mappings; virtIdx hash-indexes them per probed
	// column set, mirroring the secondary indexes materialized tables
	// get.
	virtRows map[string][]model.Tuple
	virtIdx  map[string]map[string][]model.Tuple

	// relScan caches the interned handle list of a fully scanned
	// relation, so repeated anchor scans (the common case with a plan
	// cache) skip re-encoding every ref. Dropped with the adapter.
	relScan map[string][]*asrTuple

	err error
	// failed is set with err: while nothing failed, the Err check of
	// every enumeration call is one atomic load.
	failed atomic.Bool
}

func (g *asrGraph) fail(err error) {
	g.mu.Lock()
	if g.err == nil {
		g.err = err
		g.failed.Store(true)
	}
	g.mu.Unlock()
}

// Err implements physplan.Graph.
func (g *asrGraph) Err() error {
	if !g.failed.Load() {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.err
}

// asrTuple is the interned handle of one tuple; row and incoming
// derivations resolve lazily and stick.
type asrTuple struct {
	g   *asrGraph
	ref model.TupleRef
	ord int
	key []model.Datum // decoded key datums, relation key order

	row   model.Tuple
	rowOK bool
	// in caches all incoming derivations, read without the lock by the
	// closure walks that ask for them at every node; inBy caches those
	// of one mapping.
	in   atomic.Pointer[[]*asrDeriv]
	inBy map[string][]*asrDeriv
}

// TupleRef implements physplan.Tuple.
func (t *asrTuple) TupleRef() model.TupleRef { return t.ref }

// TupleOrd implements physplan.Tuple.
func (t *asrTuple) TupleOrd() int { return t.ord }

// TupleRow implements physplan.Tuple. The lazy resolution is computed
// outside the adapter lock (it reads the snapshot, so two racing
// resolvers compute the same value) and recorded under it.
func (t *asrTuple) TupleRow() model.Tuple {
	g := t.g
	g.mu.Lock()
	if t.rowOK {
		row := t.row
		g.mu.Unlock()
		return row
	}
	g.mu.Unlock()
	var row model.Tuple
	if tab, ok := g.sys.DB.Table(t.ref.Rel); ok {
		if r, found := tab.LookupKey(t.key); found {
			row = r
		}
	}
	g.mu.Lock()
	t.row, t.rowOK = row, true
	g.mu.Unlock()
	return row
}

// asrDeriv is the interned handle of one derivation (one provenance
// row); its source and target tuples resolve lazily.
type asrDeriv struct {
	g       *asrGraph
	ord     int
	mapping string
	pr      *exchange.ProvRel
	row     model.Tuple

	edges atomic.Pointer[derivEdges] // resolved lazily, published once
}

// derivEdges are a derivation's source and target handles.
type derivEdges struct {
	srcs, tgts []*asrTuple
}

// DerivOrd implements physplan.Deriv.
func (d *asrDeriv) DerivOrd() int { return d.ord }

// DerivMapping implements physplan.Deriv.
func (d *asrDeriv) DerivMapping() string { return d.mapping }

// DerivRow implements physplan.Deriv.
func (d *asrDeriv) DerivRow() model.Tuple { return d.row }

// internTuple returns the unique handle of a reference, recording its
// decoded key datums on first sight.
func (g *asrGraph) internTuple(ref model.TupleRef, key []model.Datum) *asrTuple {
	g.mu.Lock()
	defer g.mu.Unlock()
	if t, ok := g.tuples[ref]; ok {
		return t
	}
	g.ords++
	t := &asrTuple{g: g, ref: ref, ord: g.ords, key: key}
	g.tuples[ref] = t
	return t
}

// internDeriv returns the unique handle of one provenance row,
// minting the same ID provgraph.Build would.
func (g *asrGraph) internDeriv(pr *exchange.ProvRel, row model.Tuple) *asrDeriv {
	id := provgraph.DerivIDFor(pr.Mapping.Name, row)
	g.mu.Lock()
	defer g.mu.Unlock()
	if d, ok := g.derivs[id]; ok {
		return d
	}
	g.ords++
	d := &asrDeriv{g: g, ord: g.ords, mapping: pr.Mapping.Name, pr: pr, row: row}
	g.derivs[id] = d
	return d
}

// resolve returns a derivation's source and target handles, resolving
// them from its provenance row on first use (AtomRefKeys reconstructs
// every atom's key).
func (d *asrDeriv) resolve() ([]*asrTuple, []*asrTuple) {
	if e := d.edges.Load(); e != nil {
		return e.srcs, e.tgts
	}
	g := d.g
	srcs, tgts, err := g.sys.AtomRefKeys(d.pr, d.row)
	if err != nil {
		g.fail(err)
		return nil, nil
	}
	ss := make([]*asrTuple, 0, len(srcs))
	for _, rk := range srcs {
		ss = append(ss, g.internTuple(rk.Ref, rk.Key))
	}
	ts := make([]*asrTuple, 0, len(tgts))
	for _, rk := range tgts {
		ts = append(ts, g.internTuple(rk.Ref, rk.Key))
	}
	e := &derivEdges{srcs: ss, tgts: ts}
	if !d.edges.CompareAndSwap(nil, e) {
		e = d.edges.Load() // a racing resolver published first
	}
	return e.srcs, e.tgts
}

// incoming resolves (and caches) the derivations targeting t,
// restricted to one mapping when mapping != "". Resolution probes only
// the provenance relations whose head can produce t's relation —
// the goal-directed reverse step — using each table's secondary index
// on the probed head-key columns.
func (t *asrTuple) incoming(mapping string) []*asrDeriv {
	g := t.g
	if mapping == "" {
		if in := t.in.Load(); in != nil {
			return *in
		}
	} else {
		g.mu.Lock()
		ds, ok := t.inBy[mapping]
		g.mu.Unlock()
		if ok {
			return ds
		}
	}
	// Resolve outside the lock (probes read the snapshot, interning
	// relocks per handle); two racing resolvers of the same tuple
	// compute identical slices, so the overwrite below is benign.
	var out []*asrDeriv
	seen := map[*asrDeriv]bool{}
	for i := range g.probes[t.ref.Rel] {
		p := &g.probes[t.ref.Rel][i]
		if mapping != "" && p.Prov.Mapping.Name != mapping {
			continue
		}
		if !p.Matches(t.key) {
			continue
		}
		vals := p.ProbeVals(t.key)
		g.eachProvRowMatching(p, vals, func(row model.Tuple) bool {
			d := g.internDeriv(p.Prov, row)
			if !seen[d] {
				seen[d] = true
				out = append(out, d)
			}
			return true
		})
		if g.Err() != nil {
			break
		}
	}
	if mapping == "" {
		t.in.Store(&out)
		return out
	}
	g.mu.Lock()
	if t.inBy == nil {
		t.inBy = map[string][]*asrDeriv{}
	}
	t.inBy[mapping] = out
	g.mu.Unlock()
	return out
}

// eachProvRowMatching enumerates the provenance rows of one probe
// whose probed columns equal vals: an index probe on the materialized
// table, or a hash-map probe over the cached reconstruction for
// virtual mappings. An empty column set (all-constant head key) means
// every row of the relation matches.
func (g *asrGraph) eachProvRowMatching(p *exchange.IncomingProbe, vals []model.Datum, fn func(model.Tuple) bool) {
	if !p.Prov.Virtual {
		tab, ok := g.sys.DB.Table(p.Prov.TableName)
		if !ok {
			g.fail(fmt.Errorf("proql: missing provenance table %q", p.Prov.TableName))
			return
		}
		if len(p.Cols) == 0 {
			tab.Iterate(fn)
			return
		}
		// The index was pre-built at NewSystem (exchange pre-ensures
		// every probed column set); ProbeEach scans if it is absent.
		tab.ProbeEach(p.Cols, vals, fn)
		return
	}
	rows, ok := g.virtualRows(p.Prov)
	if !ok {
		return
	}
	if len(p.Cols) == 0 {
		for _, row := range rows {
			if !fn(row) {
				return
			}
		}
		return
	}
	idx := g.virtualIndex(p.Prov, p.Cols, rows)
	var buf []byte
	for _, v := range vals {
		buf = model.AppendDatum(buf, v)
	}
	for _, row := range idx[string(buf)] {
		if !fn(row) {
			return
		}
	}
}

// virtualRows caches the reconstructed provenance rows of a virtual
// mapping. The reconstruction reads the snapshot outside the lock;
// racing reconstructions of the same mapping are identical.
func (g *asrGraph) virtualRows(pr *exchange.ProvRel) ([]model.Tuple, bool) {
	name := pr.Mapping.Name
	g.mu.Lock()
	if rows, ok := g.virtRows[name]; ok {
		g.mu.Unlock()
		return rows, true
	}
	g.mu.Unlock()
	rows, err := g.sys.ProvRows(name)
	if err != nil {
		g.fail(err)
		return nil, false
	}
	g.mu.Lock()
	if g.virtRows == nil {
		g.virtRows = map[string][]model.Tuple{}
	}
	g.virtRows[name] = rows
	g.mu.Unlock()
	return rows, true
}

// virtualIndex hash-indexes a virtual mapping's rows on one column
// set, cached per (mapping, columns).
func (g *asrGraph) virtualIndex(pr *exchange.ProvRel, cols []int, rows []model.Tuple) map[string][]model.Tuple {
	var sig strings.Builder
	sig.WriteString(pr.Mapping.Name)
	for _, c := range cols {
		sig.WriteByte('|')
		sig.WriteString(strconv.Itoa(c))
	}
	key := sig.String()
	g.mu.Lock()
	if idx, ok := g.virtIdx[key]; ok {
		g.mu.Unlock()
		return idx
	}
	g.mu.Unlock()
	idx := make(map[string][]model.Tuple, len(rows))
	for _, row := range rows {
		var buf []byte
		for _, c := range cols {
			buf = model.AppendDatum(buf, row[c])
		}
		idx[string(buf)] = append(idx[string(buf)], row)
	}
	g.mu.Lock()
	if prev, ok := g.virtIdx[key]; ok {
		idx = prev
	} else {
		g.virtIdx[key] = idx
	}
	g.mu.Unlock()
	return idx
}

// EachDerivInto implements physplan.Graph: incoming edges resolve by
// index probes against the (at most few) provenance relations whose
// head produces t's relation.
func (g *asrGraph) EachDerivInto(t physplan.Tuple, mapping string, yield func(physplan.Deriv) bool) {
	if g.Err() != nil {
		return
	}
	for _, d := range t.(*asrTuple).incoming(mapping) {
		if !yield(d) {
			return
		}
	}
}

// EachDerivOf implements physplan.Graph.
func (g *asrGraph) EachDerivOf(mapping string, yield func(physplan.Deriv) bool) {
	if g.Err() != nil {
		return
	}
	pr, ok := g.sys.Prov[mapping]
	if !ok {
		return
	}
	if pr.Virtual {
		rows, ok := g.virtualRows(pr)
		if !ok {
			return
		}
		for _, row := range rows {
			if !yield(g.internDeriv(pr, row)) {
				return
			}
		}
		return
	}
	tab, ok := g.sys.DB.Table(pr.TableName)
	if !ok {
		return
	}
	// Collect before interning: Iterate must not observe index
	// creation a nested navigation call might trigger on this table.
	rows := tab.Rows()
	for _, row := range rows {
		if !yield(g.internDeriv(pr, row)) {
			return
		}
	}
}

// EachSource implements physplan.Graph.
func (g *asrGraph) EachSource(d physplan.Deriv, yield func(physplan.Tuple) bool) {
	if g.Err() != nil {
		return
	}
	srcs, _ := d.(*asrDeriv).resolve()
	for _, s := range srcs {
		if !yield(s) {
			return
		}
	}
}

// EachTarget implements physplan.Graph.
func (g *asrGraph) EachTarget(d physplan.Deriv, yield func(physplan.Tuple) bool) {
	if g.Err() != nil {
		return
	}
	_, tgts := d.(*asrDeriv).resolve()
	for _, t := range tgts {
		if !yield(t) {
			return
		}
	}
}

// EachTupleOf implements physplan.Graph.
func (g *asrGraph) EachTupleOf(rel string, yield func(physplan.Tuple) bool) {
	if g.Err() != nil {
		return
	}
	r, ok := g.sys.Schema.Relation(rel)
	if !ok || r.IsLocal {
		return
	}
	tab, ok := g.sys.DB.Table(rel)
	if !ok {
		return
	}
	g.mu.Lock()
	scan, cached := g.relScan[rel]
	g.mu.Unlock()
	if !cached {
		rows := tab.Rows()
		scan = make([]*asrTuple, 0, len(rows))
		for _, row := range rows {
			scan = append(scan, g.internTuple(model.NewTupleRef(r, row), r.KeyOf(row)))
		}
		g.mu.Lock()
		if prev, ok := g.relScan[rel]; ok {
			scan = prev // a racing scan won; both are identical
		} else {
			if g.relScan == nil {
				g.relScan = map[string][]*asrTuple{}
			}
			g.relScan[rel] = scan
		}
		g.mu.Unlock()
	}
	for _, t := range scan {
		if !yield(t) {
			return
		}
	}
}

// TupleByKey implements physplan.Graph: one primary-key lookup on the
// pinned snapshot, interning only the tuple found — a key-pinned start
// costs the same on a freshly re-pinned adapter as on a warm one.
func (g *asrGraph) TupleByKey(rel string, key []model.Datum) (physplan.Tuple, bool) {
	if g.Err() != nil {
		return nil, false
	}
	r, ok := g.sys.Schema.Relation(rel)
	if !ok || r.IsLocal {
		return nil, false
	}
	tab, ok := g.sys.DB.Table(rel)
	if !ok {
		return nil, false
	}
	row, ok := tab.LookupKey(key)
	if !ok {
		return nil, false
	}
	t := g.internTuple(model.RefFromKey(rel, key), key)
	g.mu.Lock()
	t.row, t.rowOK = row, true
	g.mu.Unlock()
	return t, true
}

// EachTuple implements physplan.Graph.
func (g *asrGraph) EachTuple(yield func(physplan.Tuple) bool) {
	for _, r := range g.sys.Schema.PublicRelations() {
		cont := true
		g.EachTupleOf(r.Name, func(t physplan.Tuple) bool {
			cont = yield(t)
			return cont
		})
		if !cont || g.Err() != nil {
			return
		}
	}
}
