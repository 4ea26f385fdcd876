package relstore

import (
	"fmt"
	"sort"

	"repro/internal/model"
)

// RetainAll is the SetRetention depth that keeps every epoch since
// retention was enabled: the horizon never advances.
const RetainAll = ^uint64(0)

// SetRetention configures the time-travel retention horizon: the last
// depth published epochs stay answerable through SnapshotAt instead of
// having their superseded row versions reclaimed by the epoch sweep.
// RetainAll keeps everything since the call; 0 disables retention
// (the default), returning the sweep to pure snapshot-pin semantics.
// History starts at the epoch current when retention is enabled —
// versions that died earlier are already gone.
//
// Call it at setup time, before the database serves concurrent
// traffic: changing the horizon races benignly with readers (pinned
// snapshots stay sound) but the set of answerable epochs shifts.
// Widening the horizon later never resurrects history: the floor
// ratchets forward with each sweep, so epochs whose versions were
// already reclaimed stay rejected rather than answering partially.
func (db *Database) SetRetention(depth uint64) {
	if db.base != nil {
		return
	}
	if depth == 0 {
		db.retain.Store(0)
		db.histFloor.Store(0)
		return
	}
	db.mu.Lock()
	if db.histFloor.Load() == 0 {
		db.histFloor.Store(db.published.Load())
	}
	db.retain.Store(depth)
	db.mu.Unlock()
}

// RestoreHistoryFloor rewinds the history floor to e — recovery uses
// it after loading a checkpoint that carries retained versions older
// than the recovered database's enable point, so the reopened store
// answers exactly the epochs the checkpoint covers. Only meaningful
// after SetRetention.
func (db *Database) RestoreHistoryFloor(e uint64) {
	if db.base != nil || e == 0 {
		return
	}
	db.mu.Lock()
	if db.retain.Load() != 0 {
		db.histFloor.Store(e)
	}
	db.mu.Unlock()
}

// RetentionFloor returns the oldest epoch SnapshotAt can answer, or 0
// when retention is disabled. With a finite depth d the floor tracks
// the writer: epochs in [published-d+1, published] stay answerable.
func (db *Database) RetentionFloor() uint64 {
	base := db
	if db.base != nil {
		base = db.base
	}
	base.mu.Lock()
	floor := base.retentionFloorAt(base.published.Load())
	base.mu.Unlock()
	return floor
}

// retentionFloorAt computes the oldest answerable epoch given the
// published epoch as read under db.mu. Both the sweep and SnapshotAt
// derive the floor inside the same mutex section that reads pub and
// pins: the floor is monotone in pub, so any sweep serialized before a
// SnapshotAt validation used a floor no newer than the one validated
// against, and any sweep after it observes the new pin. 0 = retention
// disabled.
func (db *Database) retentionFloorAt(pub uint64) uint64 {
	d := db.retain.Load()
	if d == 0 {
		return 0
	}
	floor := db.histFloor.Load()
	if floor == 0 {
		floor = 1
	}
	if d != RetainAll && pub >= d {
		if w := pub - d + 1; w > floor {
			floor = w
		}
	}
	return floor
}

// DeadVersions reports how many superseded row versions are currently
// held across all tables — retained history plus versions pinned by
// open snapshots. The E17 memory-overhead counter.
func (db *Database) DeadVersions() int64 {
	base := db
	if db.base != nil {
		base = db.base
	}
	return base.ndead.Load()
}

// ErrEpochOutOfRange reports an AS OF epoch the store cannot answer:
// below the retention floor (history already reclaimed, or retention
// never enabled) or ahead of the newest published epoch.
type ErrEpochOutOfRange struct {
	Epoch  uint64 // the requested epoch
	Floor  uint64 // oldest answerable epoch; 0 = no retention configured
	Newest uint64 // newest published epoch
}

func (e *ErrEpochOutOfRange) Error() string {
	if e.Epoch > e.Newest {
		return fmt.Sprintf("relstore: epoch %d not yet published (newest is %d)", e.Epoch, e.Newest)
	}
	if e.Floor == 0 {
		return fmt.Sprintf("relstore: epoch %d not retained (retention is disabled; newest is %d)", e.Epoch, e.Newest)
	}
	return fmt.Sprintf("relstore: epoch %d below the retention floor %d (newest is %d)", e.Epoch, e.Floor, e.Newest)
}

// SnapshotAt pins the given epoch and returns a read-only view
// observing exactly the state committed by it, exactly as Snapshot
// does for the newest epoch. Any epoch from the retention floor
// through the published epoch is answerable; others return
// *ErrEpochOutOfRange. The caller must Close the view.
//
// Table definitions are not versioned: the view resolves the current
// table set, so a table dropped since the requested epoch is absent
// and a table created after it reads as empty (every row version in it
// was born later).
func (db *Database) SnapshotAt(epoch uint64) (*Database, error) {
	base := db
	if db.base != nil {
		base = db.base
	}
	base.mu.Lock()
	pub := base.published.Load()
	if epoch == 0 || epoch > pub {
		base.mu.Unlock()
		return nil, &ErrEpochOutOfRange{Epoch: epoch, Floor: base.retentionFloorAt(pub), Newest: pub}
	}
	if epoch < pub {
		if floor := base.retentionFloorAt(pub); floor == 0 || epoch < floor {
			base.mu.Unlock()
			return nil, &ErrEpochOutOfRange{Epoch: epoch, Floor: floor, Newest: pub}
		}
	}
	view := base.viewLocked(epoch)
	base.mu.Unlock()
	return view, nil
}

// Version is one row version with its visibility interval: the row
// exists at every epoch e with Born <= e and (Died == 0 or e < Died).
// Versions dumps them and LoadVersions restores them, so a checkpoint
// keeps the history as well as the live rows.
type Version struct {
	Row  model.Tuple
	Born uint64
	Died uint64 // 0 = still live
}

// Versions dumps the table's observable history as of the handle's
// epoch: every row live at it plus every dead version that some epoch
// at or above floor can still see (floor 0 dumps live rows only — the
// no-retention checkpoint shape). On a snapshot view the view's epoch
// is the ceiling of the cut: versions born after it are omitted and a
// death after it is clamped back to "live" — both arrive through log
// replay — so the dump is a pure function of the cut plus its retained
// history. Versions of the same primary key are ordered oldest-first,
// the order LoadVersions rebuilds chains in. Rows are aliased, not
// copied.
func (t *Table) Versions(floor uint64) []Version {
	s := t.s
	ceil := t.asOf
	s.mu.RLock()
	out := make([]Version, 0, s.live)
	for i, slots := 0, s.be.Slots(); i < slots; i++ {
		row := s.be.Row(i)
		if row == nil {
			continue
		}
		born, died := s.be.Stamps(i)
		if ceil != 0 {
			if born > ceil {
				continue
			}
			if died > ceil {
				died = 0
			}
		}
		if died != 0 && (floor == 0 || died <= floor) {
			continue
		}
		out = append(out, Version{Row: row, Born: born, Died: died})
	}
	s.mu.RUnlock()
	// Oldest-first per key: Born ascending, then Died ascending with
	// live (0) last — an insert+delete+reinsert inside one epoch dumps
	// the dead version before the live one that supersedes it.
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Born != out[j].Born {
			return out[i].Born < out[j].Born
		}
		di, dj := out[i].Died, out[j].Died
		if di == 0 {
			return false
		}
		if dj == 0 {
			return true
		}
		return di < dj
	})
	return out
}

// LoadVersions restores a Versions dump into an empty table,
// reconstructing version chains with their original epoch stamps. It
// is recovery-only: nothing is logged or published, and the caller is
// expected to FastForward the database past the dumped epochs.
// Versions of the same key must arrive oldest-first with the live
// version (if any) last, which is exactly what Versions emits.
// Returns how many versions were loaded.
func (t *Table) LoadVersions(vs []Version) (int, error) {
	if t.asOf != 0 {
		return 0, t.readOnlyErr()
	}
	s := t.s
	for _, v := range vs {
		if len(v.Row) != len(t.Schema.Columns) {
			return 0, fmt.Errorf("relstore: %s: row arity %d, want %d", t.Schema.Name, len(v.Row), len(t.Schema.Columns))
		}
		if v.Born == 0 {
			return 0, fmt.Errorf("relstore: %s: version born at epoch 0", t.Schema.Name)
		}
		if v.Died != 0 && v.Died < v.Born {
			return 0, fmt.Errorf("relstore: %s: version died (%d) before it was born (%d)", t.Schema.Name, v.Died, v.Born)
		}
	}
	deadN := 0
	s.mu.Lock()
	s.be.Grow(len(vs))
	if s.pk != nil && len(s.pk) == 0 {
		s.pk = make(map[string]int, len(vs))
	}
	for _, v := range vs {
		idx := s.be.Claim(v.Row, v.Born)
		if v.Died != 0 {
			s.be.Kill(idx, v.Died)
		}
		if s.pk != nil {
			key := s.encodeKey(v.Row, s.schema.Key)
			if head, ok := s.pk[string(key)]; ok {
				if _, headDied := s.be.Stamps(head); headDied == 0 {
					s.mu.Unlock()
					return 0, fmt.Errorf("relstore: %s: key %q has a version after its live one", t.Schema.Name, key)
				}
				s.be.SetPrev(idx, head)
			}
			s.pk[string(key)] = idx
		}
		s.indexRow(idx, v.Row)
		if v.Died == 0 {
			s.live++
		} else {
			s.dead = append(s.dead, idx)
			deadN++
		}
	}
	s.mu.Unlock()
	if deadN > 0 && s.db != nil {
		s.db.ndead.Add(int64(deadN))
		s.db.dirtyMu.Lock()
		s.db.dirtyTabs[s] = struct{}{}
		s.db.dirtyMu.Unlock()
	}
	return len(vs), nil
}
