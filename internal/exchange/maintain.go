package exchange

import (
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
// provenance can speed up this test". The propagation is delta-driven:
// the persistent support index (maintained as exchange runs) gives the
// derivations consuming each deleted ref, the affected subgraph is the
// forward closure of the deleted frontier through those support edges,
// and derivability (the boolean semiring of Table 1) is re-established
// only inside that subgraph by support counting — a derivation becomes
// valid when its last undecided source does, and tuples of a mutually-
// supporting (cyclic) component whose external support vanished are
// never counted down, so the whole cycle collapses together, which
// delete-and-rederive algorithms must special-case. Cost scales with
// the affected subgraph, not the database.
// After the propagation the deletion report is fed back into the
// compiled engine's persistent state: the deleted rows' keys join the
// deferred-repair buffer, and the next RunDelta flushes them into the
// journals (datalog.Program.ApplyDeletions) before seeding — so the
// engine state keeps mirroring the tables and the run after a
// DeleteLocal stays delta-seeded, while the deletion itself pays only
// O(deleted rows) on top of the support-index walk.
func (s *System) DeleteLocal(rel string, keys ...[]model.Datum) (*MaintenanceReport, error) {
	// One epoch for the base deletions plus everything the propagation
	// cascades to: snapshots taken mid-deletion observe none of it.
	s.DB.BeginBatch()
	defer s.DB.EndBatch()
	report, frontier, err := s.deleteLocalBase(rel, keys)
	if err != nil || report.LocalDeleted == 0 {
		return report, err
	}
	repairable := s.DeltaReady()
	if err := s.ensureSupport(); err != nil {
		s.invalidateDelta()
		return nil, err
	}
	if err := s.maintainDelta(report, frontier); err != nil {
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
// returns the refs of the tuples actually deleted (the frontier).
func (s *System) deleteLocalBase(rel string, keys [][]model.Datum) (*MaintenanceReport, []model.TupleRef, error) {
	r, ok := s.Schema.Relation(rel)
	if !ok {
		return nil, nil, fmt.Errorf("exchange: unknown relation %q", rel)
	}
	lt, ok := s.DB.Table(r.LocalName())
	if !ok {
		return nil, nil, fmt.Errorf("exchange: no local table for %q", rel)
	}
	report := &MaintenanceReport{}
	var frontier []model.TupleRef
	for _, key := range keys {
		deleted, err := lt.Delete(key)
		if err != nil {
			return nil, nil, err
		}
		if deleted {
			report.LocalDeleted++
			frontier = append(frontier, model.RefFromKey(rel, key))
			// A row inserted since the last run and deleted before it
			// ever propagated must leave the pending delta buffer too,
			// or the next RunDelta would seed from a row no table
			// holds.
			s.dropPending(rel, r, key)
		}
	}
	report.DeletedLocals = frontier
	return report, frontier, nil
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

// ensureSupport (re)builds the support index from the provenance
// relations when it is absent — after WarmAttach dropped it, or when a
// ref-plan compilation failure disabled hook maintenance.
func (s *System) ensureSupport() error {
	if s.support != nil {
		return nil
	}
	ix := newSupportIndex()
	s.support = ix
	for _, m := range s.Schema.Mappings() {
		pr := s.Prov[m.Name]
		rows, err := s.ProvRows(m.Name)
		if err != nil {
			s.support = nil
			return err
		}
		for _, row := range rows {
			sources, targets := s.AtomRefs(pr, row)
			if pr.Virtual {
				ix.markVirtual(m.Name, row)
			}
			s.supportAddRefs(pr, row, sources, targets)
		}
	}
	return nil
}

// supportAddRefs interns the refs of one derivation and adds it to the
// support index (the ref-based slow path of index rebuilds; the
// exchange hooks intern straight from their slot buffers instead).
func (s *System) supportAddRefs(pr *ProvRel, row model.Tuple, sources, targets []model.TupleRef) {
	sup := s.support
	ids := make([]int32, 0, len(sources)+len(targets))
	for _, ref := range sources {
		ids = append(ids, sup.tupleIDRef(ref))
	}
	for _, ref := range targets {
		ids = append(ids, sup.tupleIDRef(ref))
	}
	sup.add(pr.Mapping.Name, pr.Virtual, row, ids, len(sources))
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

// maintainDelta propagates deletions from the frontier refs outward
// over the support index.
func (s *System) maintainDelta(report *MaintenanceReport, frontier []model.TupleRef) error {
	ix := s.support

	// Affected subgraph: the forward closure of the frontier through
	// support edges. Every derivation consuming an affected tuple has
	// all its targets affected, so the derivations targeting affected
	// tuples (collected below) cover every derivation that can lose a
	// source.
	affected := make([]int32, 0, len(frontier))
	inAffected := make(map[int32]bool, len(frontier))
	addAffected := func(t int32) {
		if !inAffected[t] {
			inAffected[t] = true
			affected = append(affected, t)
		}
	}
	for _, ref := range frontier {
		// Interning a frontier ref the index has never seen is fine:
		// it simply has no adjacency, so only its own public row is
		// checked.
		addAffected(ix.tupleIDRef(ref))
	}
	for qi := 0; qi < len(affected); qi++ {
		for e := ix.usesHead[affected[qi]]; e != -1; e = ix.edgeNext[e] {
			for _, tgt := range ix.targets(&ix.derivs[ix.edgeDeriv[e]]) {
				addAffected(tgt)
			}
		}
	}
	var derivSet []int32
	pending := make(map[int32]int)
	for _, t := range affected {
		for e := ix.incomingHead[t]; e != -1; e = ix.edgeNext[e] {
			di := ix.edgeDeriv[e]
			if _, seen := pending[di]; !seen {
				pending[di] = 0
				derivSet = append(derivSet, di)
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
	derivable := make(map[int32]bool)
	for _, t := range affected {
		if s.IsLeafRef(ix.refs[t]) {
			derivable[t] = true
		}
	}
	var fire []int32
	for _, di := range derivSet {
		p := 0
		for _, src := range ix.sources(&ix.derivs[di]) {
			if inAffected[src] && !derivable[src] {
				p++
			}
		}
		pending[di] = p
		if p == 0 {
			fire = append(fire, di)
		}
	}
	for len(fire) > 0 {
		di := fire[len(fire)-1]
		fire = fire[:len(fire)-1]
		for _, tgt := range ix.targets(&ix.derivs[di]) {
			if !inAffected[tgt] || derivable[tgt] {
				continue
			}
			derivable[tgt] = true
			for e := ix.usesHead[tgt]; e != -1; e = ix.edgeNext[e] {
				ui := ix.edgeDeriv[e]
				if p, tracked := pending[ui]; tracked {
					p--
					pending[ui] = p
					if p == 0 {
						fire = append(fire, ui)
					}
				}
			}
		}
	}

	// Remove invalidated derivations (some source underivable). The
	// provenance row is deleted for materialized mappings; a virtual
	// row vanishes with its source tuple, which the same pass deletes.
	for _, di := range derivSet {
		if pending[di] == 0 {
			continue
		}
		d := &ix.derivs[di]
		if d.virtual {
			report.DerivationsDeleted++
		} else {
			removed, err := s.DB.MustTable(s.Prov[d.mapping].TableName).Delete(d.row)
			if err != nil {
				return err
			}
			if removed {
				report.DerivationsDeleted++
			}
		}
		report.DeletedDerivations = append(report.DeletedDerivations, DeletedDerivation{Mapping: d.mapping, Row: d.row})
		ix.remove(di)
	}

	// Remove underivable tuples. Every derivation touching them was
	// invalid (a valid one would have fired and marked them), so their
	// adjacency lists are empty by now.
	for _, t := range affected {
		if derivable[t] {
			continue
		}
		ref := ix.refs[t]
		if tbl, ok := s.DB.Table(ref.Rel); ok {
			removed, err := tbl.DeleteEncoded(ref.Key)
			if err != nil {
				return err
			}
			if removed {
				report.TuplesDeleted++
				report.DeletedTuples = append(report.DeletedTuples, ref)
			}
		}
	}
	return nil
}
