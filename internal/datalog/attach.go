package datalog

import "repro/internal/model"

// WarmAttach seeds a compiled program's persistent evaluation state
// directly from the backing tables without evaluating a single rule:
// every predicate journal holds exactly its table's rows and the age
// watermarks mark everything OLD — the state a successful full run
// would have left behind, built in O(rows) instead of O(derivations).
// Probe indexes are cleared and rebuild lazily at the next run's first
// round.
//
// exclude lists rows (per predicate name, matched by primary key) to
// leave out of the journals: rows that are in the tables but must seed
// the next RunPogramDelta as Δ — a recovered system's inserted-but-
// never-propagated rows. Excluding them reproduces the journal state
// of a live system with the same pending inserts (journals mirror the
// tables as of the last completed run). Excluded predicates must be
// keyed.
//
// This is the recovery path: a process that restored its tables from
// a checkpoint + write-ahead-log replay attaches warm and proceeds
// with RunProgramDelta, never re-deriving the world with a cold
// RunProgram. The soundness argument is the PR 4–5 invariant the rest
// of this package maintains: between runs, valid state means "journals
// mirror tables", nothing more — so journals rebuilt from the tables
// are exactly as valid as journals left behind by a run.
//
// After WarmAttach, StateValid reports true.
func (p *Program) WarmAttach(exclude map[string][]model.Tuple) {
	for _, ps := range p.preds {
		p.attachPred(ps, exclude)
	}
	p.stateValid = true
}

// attachPred seeds one predicate's journal state from its table.
func (p *Program) attachPred(ps *predState, exclude map[string][]model.Tuple) {
	var skip map[string]bool
	if rows := exclude[ps.name]; len(rows) > 0 && len(ps.keyCols) > 0 {
		skip = make(map[string]bool, len(rows))
		var kb []byte
		for _, row := range rows {
			kb = appendCols(kb[:0], row, ps.keyCols)
			skip[string(kb)] = true
		}
	}
	nrows := ps.table.Len()
	// Programs do not keep position maps between runs (reset leaves pos
	// nil; ensurePos rebuilds it on demand at the next deletion repair),
	// so the warm attach must not pay for one either: without exclusions
	// the journal seed is a straight append of the table — the restart
	// path's cheapest possible O(rows).
	if cap(ps.rows) < nrows {
		ps.rows = make([]model.Tuple, 0, nrows)
	} else {
		ps.rows = ps.rows[:0]
	}
	ps.clearIndexes()
	ps.pos = nil
	ps.posBuilt = 0
	if skip == nil {
		ps.table.Iterate(func(row model.Tuple) bool {
			ps.rows = append(ps.rows, row)
			return true
		})
	} else {
		var buf []byte
		ps.table.Iterate(func(row model.Tuple) bool {
			buf = appendCols(buf[:0], row, ps.keyCols)
			if skip[string(buf)] {
				return true
			}
			ps.rows = append(ps.rows, row)
			return true
		})
	}
	ps.oldEnd = len(ps.rows)
	ps.deltaEnd = len(ps.rows)
}
