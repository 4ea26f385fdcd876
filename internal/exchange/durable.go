package exchange

import (
	"fmt"
	"runtime/debug"

	"repro/internal/model"
	"repro/internal/wal"
)

// OpenDurable opens (or creates) a durable system whose storage lives
// in dir: the database is recovered from the newest checkpoint plus
// the write-ahead log's suffix, and every subsequent committed batch
// is logged through the returned store. Restart cost is O(rows) to
// reload state plus O(changed rows since the last checkpoint) to
// replay — never a cold full exchange: the compiled engine re-attaches
// its persistent evaluation state directly from the recovered tables
// (datalog.WarmAttach), so the first Run after a restart is an
// ordinary delta run.
//
// The caller owns the store: Checkpoint to bound the replay suffix,
// Close before process exit. The store's commit hook is installed by
// this call; the system must not be mutated before OpenDurable
// returns.
func OpenDurable(schema *model.Schema, dir string, wopts wal.Options, opts Options) (*System, *wal.Store, error) {
	// A restart is one allocation burst where nearly everything
	// allocated stays live until the open returns — checkpoint load,
	// log replay, probe-index rebuild, warm attach. Concurrent GC
	// would repeatedly re-scan the growing live set to reclaim almost
	// nothing, so it is parked for the duration (wal.Open holds the
	// same guard for its own span; nesting restores correctly).
	gcPct := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gcPct)
	st, err := wal.Open(dir, wopts)
	if err != nil {
		return nil, nil, err
	}
	db := st.DB()
	recovered := len(db.TableNames()) > 0
	sys, err := newSystemOn(db, schema, opts)
	if err != nil {
		st.Close()
		return nil, nil, err
	}
	if recovered {
		if err := sys.WarmAttach(); err != nil {
			st.Close()
			return nil, nil, err
		}
	}
	return sys, st, nil
}

// WarmAttach brings the in-memory derived state of a system whose
// tables were restored from disk up to what a never-restarted system
// would hold:
//
//   - the compiled engine's fact journals, key→position maps, and age
//     watermarks are seeded from the tables in O(rows), so the next
//     Run is delta-seeded instead of a cold full fixpoint;
//   - the pending delta buffer is recomputed as the local-contribution
//     rows whose public copy is missing — exactly the inserts whose
//     propagating run had not committed at the crash (a run commits as
//     one batch, so its effects are on disk entirely or not at all).
//
// Deletion needs nothing rebuilt: it walks the recovered provenance
// tables through the probes NewSystem built, so the first DeleteLocal
// after a restart costs what any other does.
func (s *System) WarmAttach() error {
	if err := s.recoverPending(); err != nil {
		return err
	}
	if err := s.ensureCompiled(); err != nil {
		return err
	}
	// The recovered pending rows are in the tables but must seed the
	// next RunDelta as Δ — excluding them from the journal seed leaves
	// exactly the state a live system holds between an InsertLocal and
	// its run (journals mirror the tables as of the last completed
	// run), so the delta run appends them without duplication.
	var exclude map[string][]model.Tuple
	if len(s.pending) > 0 {
		exclude = make(map[string][]model.Tuple, len(s.pending))
		for rel, rows := range s.pending {
			r, ok := s.Schema.Relation(rel)
			if !ok {
				return fmt.Errorf("exchange: unknown relation %q in recovered pending delta", rel)
			}
			exclude[r.LocalName()] = rows
		}
	}
	s.prog.WarmAttach(exclude)
	s.deltaReady = true
	return nil
}

// recoverPending rebuilds the pending delta buffer from storage: a
// local-contribution row whose primary key is absent from its public
// relation was inserted but never propagated (the run that would have
// copied it never committed), so it seeds the next delta run.
func (s *System) recoverPending() error {
	for _, r := range s.Schema.PublicRelations() {
		lt, ok := s.DB.Table(r.LocalName())
		if !ok {
			continue
		}
		pt, ok := s.DB.Table(r.Name)
		if !ok {
			continue
		}
		var rows []model.Tuple
		var key []byte
		lt.Iterate(func(row model.Tuple) bool {
			key = key[:0]
			for _, k := range r.Key {
				key = model.AppendDatum(key, row[k])
			}
			if _, found := pt.LookupKeyBytes(key); !found {
				rows = append(rows, row)
			}
			return true
		})
		if len(rows) > 0 {
			if s.pending == nil {
				s.pending = make(map[string][]model.Tuple)
			}
			s.pending[r.Name] = rows
		}
	}
	return nil
}
