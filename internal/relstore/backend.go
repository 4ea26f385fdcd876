package relstore

import (
	"slices"

	"repro/internal/model"
)

// memBackend is the row-version store behind one table: a
// slot-addressed collection of MVCC row versions, held in parallel
// in-memory slices with a free list of released slots. A slot holds one
// immutable tuple together with its visibility interval — the epoch it
// was born in and, once deleted, the epoch it died in (0 = live) — and
// an optional link to the previous version of the same primary key.
//
// The Table/tableState layer owns all policy (visibility rules, key
// and index maintenance, locking, deferred reclamation); memBackend is
// pure storage. Callers serialize access through the table lock, so it
// needs no internal synchronization.
type memBackend struct {
	rows []model.Tuple
	born []uint64
	died []uint64
	prev []int
	free []int
}

// Slots is the slot-space size: every slot index in [0, Slots()) is
// addressable, including released ones (whose Row is nil).
func (m *memBackend) Slots() int { return len(m.rows) }

// Row returns the tuple stored in a slot, or nil for a released slot.
func (m *memBackend) Row(slot int) model.Tuple { return m.rows[slot] }

// Stamps returns the slot's visibility interval (born, died); died is
// 0 while the version is live.
func (m *memBackend) Stamps(slot int) (uint64, uint64) { return m.born[slot], m.died[slot] }

// Prev returns the slot holding the previous version of the same
// primary key, or -1.
func (m *memBackend) Prev(slot int) int { return m.prev[slot] }

// SetPrev rewrites the version-chain link (reclamation splices
// reclaimed versions out of their chain).
func (m *memBackend) SetPrev(slot, prev int) { m.prev[slot] = prev }

// Claim stores a new live version (died 0, prev -1), reusing a
// released slot when one is free, and returns its slot.
func (m *memBackend) Claim(row model.Tuple, born uint64) int {
	if n := len(m.free); n > 0 {
		idx := m.free[n-1]
		m.free = m.free[:n-1]
		m.rows[idx] = row
		m.born[idx], m.died[idx], m.prev[idx] = born, 0, -1
		return idx
	}
	m.rows = append(m.rows, row)
	m.born = append(m.born, born)
	m.died = append(m.died, 0)
	m.prev = append(m.prev, -1)
	return len(m.rows) - 1
}

// Grow presizes the slices for n more Claims; checkpoint recovery
// loads whole tables through it.
func (m *memBackend) Grow(n int) {
	m.rows = slices.Grow(m.rows, n)
	m.born = slices.Grow(m.born, n)
	m.died = slices.Grow(m.died, n)
	m.prev = slices.Grow(m.prev, n)
}

// Kill marks a live slot dead as of the given epoch.
func (m *memBackend) Kill(slot int, died uint64) { m.died[slot] = died }

// Release frees a dead slot for reuse: the row is dropped, the chain
// link reset, and the slot becomes claimable again.
func (m *memBackend) Release(slot int) {
	m.rows[slot] = nil
	m.prev[slot] = -1
	m.free = append(m.free, slot)
}
