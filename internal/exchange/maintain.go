package exchange

import (
	"encoding/binary"
	"fmt"

	"repro/internal/model"
)

// MaintenanceReport summarizes one incremental deletion propagation.
type MaintenanceReport struct {
	// LocalDeleted counts base tuples removed from local-contribution
	// tables.
	LocalDeleted int
	// TuplesDeleted counts derived tuples removed from public
	// relations because no derivation survived.
	TuplesDeleted int
	// DerivationsDeleted counts provenance rows removed because a
	// source tuple disappeared.
	DerivationsDeleted int

	// TuplesVisited and DerivationsVisited measure the propagation's
	// cost: the size of the affected subgraph the walk examined — only
	// the refs reachable from the deleted frontier, 0 derivations when
	// the deleted tuples feed no mapping.
	TuplesVisited      int
	DerivationsVisited int

	// DeletedLocals lists the refs of the base tuples removed from
	// local-contribution tables (the deletion frontier), DeletedTuples
	// the removed public-relation tuples, and DeletedDerivations the
	// removed provenance rows, so consumers (the ASR index patch,
	// asr.Index.ApplyDeletions) can apply the same deletions without
	// diffing storage. Every report carries them, so
	// an empty list means nothing of that kind was deleted.
	DeletedLocals      []model.TupleRef
	DeletedTuples      []model.TupleRef
	DeletedDerivations []DeletedDerivation
}

// DeletedDerivation identifies one removed derivation: the mapping and
// its provenance-relation row.
type DeletedDerivation struct {
	Mapping string
	Row     model.Tuple
}

// DeleteLocal removes base tuples (by key) from a relation's
// local-contribution table and propagates the deletions: any tuple in
// any public relation that is no longer derivable from the remaining
// base data is removed, along with the provenance rows of invalidated
// derivations.
//
// This is the paper's use case Q5 — "during incremental view
// maintenance or update exchange, when a base tuple is deleted, we
// need to determine whether existing view tuples remain derivable;
// provenance can speed up this test". The propagation is delta-driven
// and reads the provenance tables themselves: the body-atom probes
// NewSystem built (TableRole.Uses) give the derivations consuming each
// deleted ref, the affected subgraph is the forward closure of the
// deleted frontier through those edges, and derivability (the boolean
// semiring of Table 1) is re-established only inside that subgraph by
// support counting over the derivations the head-atom probes
// (TableRole.Incoming) find — a derivation becomes valid when its last
// undecided source does, and tuples of a mutually-supporting (cyclic)
// component whose external support vanished are never counted down,
// so the whole cycle collapses together, which delete-and-rederive
// algorithms must special-case. Cost scales with the affected
// subgraph, not the database.
// After the propagation the deletion report is fed back into the
// compiled engine's persistent state: the deleted rows' keys join the
// deferred-repair buffer, and the next RunDelta flushes them into the
// journals (datalog.Program.ApplyDeletions) before seeding — so the
// engine state keeps mirroring the tables and the run after a
// DeleteLocal stays delta-seeded, while the deletion itself pays only
// O(deleted rows) on top of the walk.
func (s *System) DeleteLocal(rel string, keys ...[]model.Datum) (*MaintenanceReport, error) {
	// One epoch for the base deletions plus everything the propagation
	// cascades to: snapshots taken mid-deletion observe none of it.
	s.DB.BeginBatch()
	defer s.DB.EndBatch()
	report, err := s.deleteLocalBase(rel, keys)
	if err != nil || report.LocalDeleted == 0 {
		return report, err
	}
	repairable := s.DeltaReady()
	if err := s.maintainDelta(report); err != nil {
		s.invalidateDelta()
		return nil, err
	}
	if !repairable {
		s.invalidateDelta()
		return report, nil
	}
	if err := s.deferJournalRepair(report); err != nil {
		// The tables themselves are consistent; degrade to the
		// pre-repair behavior (next run pays a full fixpoint).
		s.invalidateDelta()
	}
	return report, nil
}

// deferJournalRepair records a deletion report's removed rows in the
// deferred-repair buffer the next delta run flushes into the
// journals. Provenance rows live outside the Datalog program (they
// are hook-maintained), so only the local/public deletions are
// translated.
func (s *System) deferJournalRepair(report *MaintenanceReport) error {
	if s.deadRows == nil {
		s.deadRows = make(map[string][]string)
	}
	for _, ref := range report.DeletedLocals {
		r, ok := s.Schema.Relation(ref.Rel)
		if !ok {
			return fmt.Errorf("exchange: unknown relation %q in deletion report", ref.Rel)
		}
		name := r.LocalName()
		s.deadRows[name] = append(s.deadRows[name], ref.Key)
	}
	for _, ref := range report.DeletedTuples {
		s.deadRows[ref.Rel] = append(s.deadRows[ref.Rel], ref.Key)
	}
	return nil
}

// flushDeadRows applies the deferred journal repairs accumulated by
// DeleteLocal since the last run. A no-op when nothing is buffered or
// when the persistent state is already slated for a full reseed.
func (s *System) flushDeadRows() error {
	if len(s.deadRows) == 0 {
		return nil
	}
	dead := s.deadRows
	s.deadRows = nil
	if s.prog == nil || !s.prog.StateValid() {
		return nil
	}
	return s.prog.ApplyDeletions(dead)
}

// deleteLocalBase removes the keys from the relation's local table and
// reports the refs of the tuples actually deleted (the frontier) as
// DeletedLocals.
func (s *System) deleteLocalBase(rel string, keys [][]model.Datum) (*MaintenanceReport, error) {
	r, ok := s.Schema.Relation(rel)
	if !ok {
		return nil, fmt.Errorf("exchange: unknown relation %q", rel)
	}
	lt, ok := s.DB.Table(r.LocalName())
	if !ok {
		return nil, fmt.Errorf("exchange: no local table for %q", rel)
	}
	report := &MaintenanceReport{}
	for _, key := range keys {
		deleted, err := lt.Delete(key)
		if err != nil {
			return nil, err
		}
		if deleted {
			report.LocalDeleted++
			report.DeletedLocals = append(report.DeletedLocals, model.RefFromKey(rel, key))
			// A row inserted since the last run and deleted before it
			// ever propagated must leave the pending delta buffer too,
			// or the next RunDelta would seed from a row no table
			// holds.
			s.dropPending(rel, r, key)
		}
	}
	return report, nil
}

// dropPending removes any buffered-but-not-yet-run local rows matching
// the deleted key from the pending delta buffer.
func (s *System) dropPending(rel string, r *model.Relation, key []model.Datum) {
	rows := s.pending[rel]
	if len(rows) == 0 {
		return
	}
	enc := model.EncodeDatums(key)
	kept := rows[:0]
	for _, row := range rows {
		if model.EncodeDatums(r.KeyOf(row)) != enc {
			kept = append(kept, row)
		}
	}
	if len(kept) == 0 {
		delete(s.pending, rel)
		return
	}
	s.pending[rel] = kept
}

// IsLeafRef reports whether the tuple named by ref has a local
// contribution (a '+' node in Figure 1).
func (s *System) IsLeafRef(ref model.TupleRef) bool {
	r, ok := s.Schema.Relation(ref.Rel)
	if !ok || r.IsLocal {
		return false
	}
	lt, ok := s.DB.Table(r.LocalName())
	if !ok {
		return false
	}
	_, found := lt.LookupEncoded(ref.Key)
	return found
}

// walk is one deletion propagation's view of the affected subgraph:
// the tuples and derivations it reached through the probes of the
// system's table roles, numbered in the order it reached them. A tuple
// is identified by its ref, a derivation by its mapping and slot — a
// virtual mapping's derivation by its source row's slot.
type walk struct {
	s      *System
	tuples []walkTuple
	// tupleOf maps a tuple's table ordinal (uvarint) and encoded key to
	// its number.
	tupleOf map[string]int32
	derivs  []walkDeriv
	derivOf map[derivID]int32
	// targets backs the derivations' head tuples, uses the tuples'
	// consuming derivations, keys the tuples' key datums; buf and vals
	// are encoding scratch.
	targets []int32
	uses    []int32
	keys    []model.Datum
	buf     []byte
	vals    []model.Datum
}

type walkTuple struct {
	ref model.TupleRef
	// ord is the table ordinal of the tuple's relation, key its key
	// datums.
	ord int
	key []model.Datum
	// affected marks the forward closure of the frontier, derivable a
	// tuple of it known to be still derivable.
	affected, derivable bool
	// uses[0]:uses[1] is the range of w.uses listing the derivations
	// consuming the tuple, once per body atom naming it; filled when
	// the tuple is affected.
	uses [2]int32
}

type derivID struct {
	prov *ProvRel
	slot int
}

type walkDeriv struct {
	prov *ProvRel
	row  model.Tuple
	// targets is the offset of the derivation's head tuples in
	// w.targets.
	targets int32
	// visited marks a derivation producing an affected tuple; pending
	// counts its body occurrences of affected tuples not yet known
	// derivable.
	visited bool
	pending int32
}

// reset empties the walk for a deletion on s, keeping the capacity of
// its slices: a deletion allocates little beyond its maps and what its
// report keeps.
func (w *walk) reset(s *System) {
	*w = walk{
		s: s, tupleOf: make(map[string]int32), derivOf: make(map[derivID]int32),
		tuples: w.tuples[:0], derivs: w.derivs[:0], targets: w.targets[:0], uses: w.uses[:0],
		keys: w.keys[:0], buf: w.buf, vals: w.vals,
	}
}

func (w *walk) targetsOf(d int32) []int32 {
	dv := &w.derivs[d]
	return w.targets[dv.targets : dv.targets+int32(len(dv.prov.Targets))]
}

// atomKey sets w.buf to the lookup key of atom ak's tuple under row.
func (w *walk) atomKey(ak *AtomKey, row model.Tuple) {
	w.buf = ak.AppendKey(binary.AppendUvarint(w.buf[:0], uint64(ak.Table)), row)
}

// tuple returns the number of the tuple whose lookup key w.buf holds,
// numbering it on first sight with table ordinal ord and the key datums
// key() returns. The ref's Rel is rel.
func (w *walk) tuple(rel string, ord int, key func() []model.Datum) int32 {
	if t, ok := w.tupleOf[string(w.buf)]; ok {
		return t
	}
	var prefix [binary.MaxVarintLen64]byte
	k := string(w.buf)
	t := int32(len(w.tuples))
	w.tupleOf[k] = t
	w.tuples = append(w.tuples, walkTuple{
		ref: model.TupleRef{Rel: rel, Key: k[binary.PutUvarint(prefix[:], uint64(ord)):]},
		ord: ord,
		key: key(),
	})
	return t
}

// deriv returns the number of the derivation of pr at slot with
// provenance row row, numbering it and its head tuples on first sight.
func (w *walk) deriv(pr *ProvRel, slot int, row model.Tuple) int32 {
	id := derivID{pr, slot}
	if d, ok := w.derivOf[id]; ok {
		return d
	}
	d := int32(len(w.derivs))
	w.derivOf[id] = d
	w.derivs = append(w.derivs, walkDeriv{prov: pr, row: row, targets: int32(len(w.targets))})
	for i := range pr.Targets {
		ak := &pr.Targets[i]
		w.atomKey(ak, row)
		w.targets = append(w.targets, w.tuple(ak.Rel.Name, ak.Table, func() []model.Datum {
			n := len(w.keys)
			w.keys = ak.AppendDatums(w.keys, row)
			return w.keys[n:len(w.keys):len(w.keys)]
		}))
	}
	return d
}

// undecided counts the body occurrences of derivation d that name an
// affected tuple not yet known derivable. A body tuple the walk never
// numbered is not affected.
func (w *walk) undecided(d int32) int32 {
	dv := &w.derivs[d]
	n := int32(0)
	for i := range dv.prov.Sources {
		w.atomKey(&dv.prov.Sources[i], dv.row)
		if t, ok := w.tupleOf[string(w.buf)]; ok && w.tuples[t].affected && !w.tuples[t].derivable {
			n++
		}
	}
	return n
}

// each passes fn the number of every derivation probe p finds for
// tuple t. A virtual mapping's derivations are rows of its source
// relation: a body atom's is t's own row when the atom matches it, a
// head atom's are the source rows holding t's key in p.Source that
// match the body atom.
func (w *walk) each(p *AtomProbe, t int32, fn func(d int32)) error {
	key := w.tuples[t].key
	if !p.Matches(key) {
		return nil
	}
	pr := p.Prov
	ord, ix := pr.Table, p.Index
	if pr.Virtual {
		ord, ix = pr.Sources[0].Table, p.Source
	}
	tbl, ok := w.s.DB.TableAt(ord)
	if !ok {
		return fmt.Errorf("exchange: no table %d for mapping %s", ord, pr.Mapping.Name)
	}
	found := func(slot int, row model.Tuple) bool {
		if pr.Virtual {
			if row, ok = pr.virtualRow(row); !ok {
				return true
			}
		}
		fn(w.deriv(pr, slot, row))
		return true
	}
	if pr.Virtual && p.Atom < len(pr.Sources) {
		w.buf = model.AppendDatums(w.buf[:0], key)
		if slot, row, ok := tbl.LookupKeySlot(w.buf); ok {
			found(slot, row)
		}
		return nil
	}
	if len(ix.Cols) == 0 {
		tbl.EachSlot(found)
		return nil
	}
	w.vals = p.ProbeVals(w.vals, key)
	w.buf = model.AppendDatums(w.buf[:0], w.vals)
	tbl.ProbeEach(ix, w.buf, found)
	return nil
}

// maintainDelta propagates deletions from the report's frontier
// (DeletedLocals) outward over the provenance tables.
func (s *System) maintainDelta(report *MaintenanceReport) error {
	frontier := report.DeletedLocals
	w := &s.walk
	w.reset(s)

	// Affected subgraph: the forward closure of the frontier through
	// the derivations consuming its tuples. Every derivation consuming
	// an affected tuple has all its targets affected, so the
	// derivations targeting affected tuples (collected below) cover
	// every derivation that can lose a source.
	affected := make([]int32, 0, len(frontier))
	affect := func(t int32) {
		if !w.tuples[t].affected {
			w.tuples[t].affected = true
			affected = append(affected, t)
		}
	}
	for _, ref := range frontier {
		// A frontier tuple no derivation consumes is fine: only its own
		// public row is checked.
		tbl, ok := s.DB.Table(ref.Rel)
		if !ok {
			return fmt.Errorf("exchange: no table for %q", ref.Rel)
		}
		key, err := model.DecodeDatums(ref.Key)
		if err != nil {
			return err
		}
		w.buf = append(binary.AppendUvarint(w.buf[:0], uint64(tbl.Ord())), ref.Key...)
		affect(w.tuple(ref.Rel, tbl.Ord(), func() []model.Datum { return key }))
	}
	for qi := 0; qi < len(affected); qi++ {
		t := affected[qi]
		probes := s.roles[w.tuples[t].ord].Uses
		from := int32(len(w.uses))
		for i := range probes {
			if err := w.each(&probes[i], t, func(d int32) {
				w.uses = append(w.uses, d)
				for _, tgt := range w.targetsOf(d) {
					affect(tgt)
				}
			}); err != nil {
				return err
			}
		}
		w.tuples[t].uses = [2]int32{from, int32(len(w.uses))}
	}
	var derivSet []int32
	for _, t := range affected {
		probes := s.roles[w.tuples[t].ord].Incoming
		for i := range probes {
			if err := w.each(&probes[i], t, func(d int32) {
				if !w.derivs[d].visited {
					w.derivs[d].visited = true
					derivSet = append(derivSet, d)
				}
			}); err != nil {
				return err
			}
		}
	}
	report.TuplesVisited = len(affected)
	report.DerivationsVisited = len(derivSet)

	// Localized derivability by support counting: a derivation's
	// pending count is the number of its source occurrences that sit in
	// the affected set and are not yet known derivable (sources outside
	// the set kept their derivability by construction). Leaves seed the
	// worklist; each count reaching zero fires the derivation and marks
	// its targets. Tuples never marked — including whole cyclic
	// components with no external support left — are underivable.
	for _, t := range affected {
		w.tuples[t].derivable = s.IsLeafRef(w.tuples[t].ref)
	}
	var fire []int32
	for _, d := range derivSet {
		p := w.undecided(d)
		w.derivs[d].pending = p
		if p == 0 {
			fire = append(fire, d)
		}
	}
	for len(fire) > 0 {
		d := fire[len(fire)-1]
		fire = fire[:len(fire)-1]
		for _, tgt := range w.targetsOf(d) {
			tt := &w.tuples[tgt]
			if !tt.affected || tt.derivable {
				continue
			}
			tt.derivable = true
			for _, u := range w.uses[tt.uses[0]:tt.uses[1]] {
				if ud := &w.derivs[u]; ud.visited {
					ud.pending--
					if ud.pending == 0 {
						fire = append(fire, u)
					}
				}
			}
		}
	}

	// Remove invalidated derivations (some source underivable). The
	// provenance row is deleted for materialized mappings; a virtual
	// row vanishes with its source tuple, which the same pass deletes.
	for _, d := range derivSet {
		dv := &w.derivs[d]
		if dv.pending == 0 {
			continue
		}
		if dv.prov.Virtual {
			report.DerivationsDeleted++
		} else {
			removed, err := s.DB.MustTable(dv.prov.TableName).Delete(dv.row)
			if err != nil {
				return err
			}
			if removed {
				report.DerivationsDeleted++
			}
		}
		report.DeletedDerivations = append(report.DeletedDerivations, DeletedDerivation{Mapping: dv.prov.Mapping.Name, Row: dv.row})
	}

	// Remove underivable tuples.
	for _, t := range affected {
		wt := &w.tuples[t]
		if wt.derivable {
			continue
		}
		if tbl, ok := s.DB.TableAt(wt.ord); ok {
			removed, err := tbl.DeleteEncoded(wt.ref.Key)
			if err != nil {
				return err
			}
			if removed {
				report.TuplesDeleted++
				report.DeletedTuples = append(report.DeletedTuples, wt.ref)
			}
		}
	}
	return nil
}
