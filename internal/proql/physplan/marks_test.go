package physplan

import (
	"runtime"
	"testing"
)

// TestMarks: a code reads as fresh exactly once, wherever it falls —
// on either side of a page boundary, at 0 and at 1<<40 — and a mark
// never disturbs its neighbours.
func TestMarks(t *testing.T) {
	var m marks
	codes := []uint64{0, 1, 63, 64, markPageBits - 1, markPageBits, markPageBits + 1,
		3*markPageBits - 1, 1 << 40, 1<<40 + 1, 1<<40 + markPageBits, 5}
	for _, c := range codes {
		if !m.mark(c) {
			t.Fatalf("first mark of %d reported seen", c)
		}
	}
	for _, c := range codes {
		if m.mark(c) {
			t.Fatalf("re-mark of %d reported fresh", c)
		}
	}
	for _, c := range []uint64{2, 62, 65, markPageBits - 2, markPageBits + 2, 1<<40 - 1, 1<<40 + 2} {
		if !m.mark(c) {
			t.Errorf("unmarked neighbour %d reported seen", c)
		}
	}
}

// TestMarksBytesFollowTheMarkedSet: marking the same number of codes
// allocates the same bytes whether the codes start at 0 or at 1<<40 —
// memory follows the marked set, not the largest code.
func TestMarksBytesFollowTheMarkedSet(t *testing.T) {
	measure := func(base uint64) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for run := 0; run < 10; run++ {
			var m marks
			for c := base; c < base+3*markPageBits; c += 7 {
				m.mark(c)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / 10
	}
	low, high := measure(0), measure(1<<40)
	t.Logf("3 pages of marks: %d bytes at 0, %d bytes at 1<<40", low, high)
	if high > low+low/10 {
		t.Errorf("marks at 1<<40 allocate %d bytes, at 0 %d", high, low)
	}
	if low > 8*markPageBits/8 {
		t.Errorf("3 pages of marks allocate %d bytes, want at most %d", low, 8*markPageBits/8)
	}
}
