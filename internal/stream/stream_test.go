package stream

import (
	"errors"
	"sync/atomic"
	"testing"
)

// endless counts up forever; live counts the open iterators.
func endless(live *atomic.Int64) func() (Iterator[int], error) {
	return func() (Iterator[int], error) {
		live.Add(1)
		n := 0
		return &Func[int]{
			NextFn:  func() (int, bool, error) { n++; return n, true, nil },
			CloseFn: func() { live.Add(-1) },
		}, nil
	}
}

// TestOrderedParallelCloseStopsWorkers: Close stops workers that are
// still producing and returns only once none is left.
func TestOrderedParallelCloseStopsWorkers(t *testing.T) {
	var live atomic.Int64
	it := OrderedParallel([]func() (Iterator[int], error){endless(&live), endless(&live), endless(&live)}, 2)
	it.Close()
	if n := live.Load(); n != 0 {
		t.Errorf("%d workers still running after Close", n)
	}
	if _, ok, err := it.Next(); ok || err == nil {
		t.Errorf("Next after Close = ok %v, err %v; want a stopped stream", ok, err)
	}
}

// TestOrderedParallelOrderAndErrors: elements come in maker order, and
// a maker's error surfaces in its place and ends the stream.
func TestOrderedParallelOrderAndErrors(t *testing.T) {
	items := func(xs ...int) func() (Iterator[int], error) {
		return func() (Iterator[int], error) { return FromSlice(xs), nil }
	}
	got, err := Collect(OrderedParallel([]func() (Iterator[int], error){items(1, 2), items(), items(3)}, 2))
	if err != nil || len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("Collect = %v, %v; want [1 2 3]", got, err)
	}
	boom := errors.New("boom")
	var live atomic.Int64
	failing := func() (Iterator[int], error) { return nil, boom }
	it := OrderedParallel([]func() (Iterator[int], error){items(1), failing, endless(&live)}, 2)
	if v, ok, err := it.Next(); !ok || err != nil || v != 1 {
		t.Fatalf("first Next = %v, %v, %v", v, ok, err)
	}
	if _, _, err := it.Next(); !errors.Is(err, boom) {
		t.Errorf("second Next err = %v, want %v", err, boom)
	}
	it.Close()
	if n := live.Load(); n != 0 {
		t.Errorf("%d workers still running after a failed stream closed", n)
	}
}
