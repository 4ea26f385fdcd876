package datalog

import (
	"fmt"
	"sort"

	"repro/internal/model"
)

// This file is the deletion-repair half of the persistent evaluation
// state: RunProgram/RunProgramDelta (exec.go) leave the
// predicate journals mirroring the backing tables, and ApplyDeletions
// keeps that mirror intact when rows are deleted from the tables
// outside a run (update exchange's deletion propagation). Without it a
// deletion forces InvalidateState and the next run pays a full
// fixpoint; with it a Run after a DeleteLocal stays delta-seeded.

// ApplyDeletions removes the identified rows from the persistent
// predicate journals and repairs the hash indexes, key→position maps,
// and age watermarks in place, so the journals keep mirroring the
// backing tables after the caller deleted those rows from storage —
// the program's state stays valid and the next RunProgramDelta needs
// no reseeding full fixpoint.
//
// deleted maps predicate names to the canonical primary-key encodings
// (model.EncodeDatums of the key attributes, a model.TupleRef's Key)
// of the rows removed from that predicate's table. Keys not present in
// a journal are ignored (e.g. a base row that was deleted before it
// was ever propagated). Unknown predicates are an error: every
// predicate the caller can delete from must be part of the program.
//
// The repair is O(deleted rows): each dead key is removed by a
// swap-delete against the predicate's key→position map, with in-place
// surgery on the affected index buckets (bucket positions stay
// ascending, so a partition bound stays a cutoff). The position map is
// built lazily — runs pay only a nil check on the insert hot path until
// the first repair builds the map — and kept hot from then on: the
// executor maintains it per appended row (exec.go journalAppend), so
// every subsequent repair is O(deleted rows) even when full runs' worth
// of inserts intervened. Only a full RunProgram reset drops the map
// back to lazy.
//
// ApplyDeletions requires valid state (StateValid). On any error the
// state is invalidated and the caller must fall back to a full
// RunProgram.
func (p *Program) ApplyDeletions(deleted map[string][]string) error {
	if !p.stateValid {
		return fmt.Errorf("datalog: deletion repair requires valid persistent state (run RunProgram first)")
	}
	for name, keys := range deleted {
		if len(keys) == 0 {
			continue
		}
		id, ok := p.predID[name]
		if !ok {
			p.stateValid = false
			return fmt.Errorf("datalog: deleted predicate %q not in program", name)
		}
		ps := p.preds[id]
		if len(ps.keyCols) == 0 {
			p.stateValid = false
			return fmt.Errorf("datalog: predicate %q has no primary key; cannot repair journal", ps.name)
		}
		ps.ensurePos()
		for _, k := range keys {
			ps.removeKey(k)
		}
		// Restore the journal invariants: the whole (now shorter)
		// journal is OLD and fully indexed.
		ps.oldEnd = len(ps.rows)
		ps.deltaEnd = len(ps.rows)
		for _, ix := range ps.indexes {
			ix.built = len(ps.rows)
		}
	}
	return nil
}

// ensurePos extends the predicate's key→position map over the journal
// rows appended since it was last current (all rows, after a reset).
func (ps *predState) ensurePos() {
	if ps.posBuilt == len(ps.rows) && ps.pos != nil {
		return
	}
	if ps.pos == nil {
		ps.pos = make(map[string]int32, len(ps.rows))
	}
	var buf []byte
	for i := ps.posBuilt; i < len(ps.rows); i++ {
		buf = appendCols(buf[:0], ps.rows[i], ps.keyCols)
		ps.pos[string(buf)] = int32(i)
	}
	ps.posBuilt = len(ps.rows)
}

// removeKey swap-deletes the row with the given key encoding from the
// journal: the journal tail replaces the dead row's slot, the position
// map records the move, and each probe index drops the dead position
// and re-files the moved one — O(index count) bucket operations per
// deleted row, independent of the journal length.
func (ps *predState) removeKey(k string) {
	p, ok := ps.pos[k]
	if !ok {
		return
	}
	delete(ps.pos, k)
	row := ps.rows[p]
	var buf []byte
	for _, ix := range ps.indexes {
		buf = appendCols(buf[:0], row, ix.cols)
		ix.removePos(buf, p)
	}
	last := int32(len(ps.rows) - 1)
	if p != last {
		moved := ps.rows[last]
		ps.rows[p] = moved
		buf = appendCols(buf[:0], moved, ps.keyCols)
		ps.pos[string(buf)] = p
		for _, ix := range ps.indexes {
			buf = appendCols(buf[:0], moved, ix.cols)
			ix.movePos(buf, last, p)
		}
	}
	// Clear the vacated tail slot so the journal doesn't pin the
	// deleted tuple alive.
	ps.rows[last] = nil
	ps.rows = ps.rows[:last]
	ps.posBuilt = len(ps.rows)
}

// removePos deletes position p from the bucket of the encoded key
// (ascending order preserved; empty buckets are dropped).
func (ix *probeIndex) removePos(key []byte, p int32) {
	b := ix.buckets[string(key)]
	i := sort.Search(len(b), func(i int) bool { return b[i] >= p })
	if i >= len(b) || b[i] != p {
		return
	}
	b = append(b[:i], b[i+1:]...)
	if len(b) == 0 {
		delete(ix.buckets, string(key))
		return
	}
	ix.buckets[string(key)] = b
}

// movePos re-files a journal move old→new inside the encoded key's
// bucket. old is the journal tail, hence the bucket's final (largest)
// entry; new is inserted at its sorted slot.
func (ix *probeIndex) movePos(key []byte, old, new int32) {
	b := ix.buckets[string(key)]
	if n := len(b); n > 0 && b[n-1] == old {
		b = b[:n-1]
	} else {
		// Defensive: the ascending invariant puts the tail row last,
		// but fall back to a search rather than corrupt the bucket.
		i := sort.Search(len(b), func(i int) bool { return b[i] >= old })
		if i < len(b) && b[i] == old {
			b = append(b[:i], b[i+1:]...)
		}
	}
	i := sort.Search(len(b), func(i int) bool { return b[i] >= new })
	b = append(b, 0)
	copy(b[i+1:], b[i:])
	b[i] = new
	ix.buckets[string(key)] = b
}

// JournalLen reports the journal length of a predicate (tests and
// diagnostics); -1 when the predicate is not part of the program.
func (p *Program) JournalLen(pred string) int {
	id, ok := p.predID[pred]
	if !ok {
		return -1
	}
	return len(p.preds[id].rows)
}

// JournalMirrorsTables verifies that every predicate journal holds
// exactly the rows of its backing table (set equality on primary-key
// encodings, multiplicity-checked) and that the position maps index
// their covered prefix exactly. It is O(database) and intended for
// tests and fuzz oracles, not production paths.
func (p *Program) JournalMirrorsTables() error {
	for _, ps := range p.preds {
		if len(ps.pos) != ps.posBuilt {
			return fmt.Errorf("datalog: %s position map holds %d keys, covers %d rows", ps.name, len(ps.pos), ps.posBuilt)
		}
		counts := make(map[string]int)
		var buf []byte
		for i, row := range ps.rows {
			buf = appendCols(buf[:0], row, ps.table.Schema.Key)
			counts[string(buf)]++
			if i < ps.posBuilt {
				if got, ok := ps.pos[string(buf)]; !ok || got != int32(i) {
					return fmt.Errorf("datalog: %s position map misses row %d", ps.name, i)
				}
			}
		}
		n := 0
		var err error
		ps.table.Iterate(func(row model.Tuple) bool {
			buf = appendCols(buf[:0], row, ps.table.Schema.Key)
			if counts[string(buf)] == 0 {
				err = fmt.Errorf("datalog: table %s row %s missing from journal", ps.name, row.Format())
				return false
			}
			counts[string(buf)]--
			n++
			return true
		})
		if err != nil {
			return err
		}
		if n != len(ps.rows) {
			return fmt.Errorf("datalog: journal of %s holds %d rows, table %d", ps.name, len(ps.rows), n)
		}
	}
	return nil
}
