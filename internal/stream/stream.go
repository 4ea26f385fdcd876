// Package stream defines the pull-based iterator abstraction shared by
// the ProQL physical-operator runtimes: the asr backend's operators
// (internal/proql/physplan) stream variable-binding rows through it,
// and the relational backend (internal/relstore) exposes its plans as
// tuple streams through the same interface. Keeping the interface in
// one tiny package lets the engine drive either backend with the same
// drain loop and lets pipeline stages compose without materializing
// intermediate results.
package stream

import (
	"errors"
	"sync"
)

// Iterator yields values one at a time. Next returns (value, true, nil)
// for each element, and (zero, false, err) when the stream is
// exhausted or failed. Close releases resources (worker goroutines,
// held inputs) and must be safe to call multiple times and after
// exhaustion.
type Iterator[T any] interface {
	Next() (T, bool, error)
	Close()
}

// Func adapts a closure to an Iterator. Close is optional.
type Func[T any] struct {
	NextFn  func() (T, bool, error)
	CloseFn func()
}

// Next implements Iterator.
func (f *Func[T]) Next() (T, bool, error) { return f.NextFn() }

// Close implements Iterator.
func (f *Func[T]) Close() {
	if f.CloseFn != nil {
		f.CloseFn()
	}
}

// Slice streams a materialized slice.
type Slice[T any] struct {
	items []T
	pos   int
}

// FromSlice wraps items in an Iterator.
func FromSlice[T any](items []T) *Slice[T] { return &Slice[T]{items: items} }

// Next implements Iterator.
func (s *Slice[T]) Next() (T, bool, error) {
	var zero T
	if s.pos >= len(s.items) {
		return zero, false, nil
	}
	v := s.items[s.pos]
	s.pos++
	return v, true, nil
}

// Close implements Iterator.
func (s *Slice[T]) Close() { s.items = nil }

// Collect drains an iterator into a slice, closing it.
func Collect[T any](it Iterator[T]) ([]T, error) {
	defer it.Close()
	var out []T
	for {
		v, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, v)
	}
}

// errStopped ends a worker of a closed or failed OrderedParallel; no
// consumer reads it.
var errStopped = errors.New("stream: stopped")

// OrderedParallel runs every maker concurrently (bounded by workers)
// and yields their elements in maker order: all elements of makers[0]
// first, then makers[1], and so on. The consumer can start draining
// maker 0 while later makers are still producing, so a slow tail does
// not delay the head. A maker or element error cancels the remaining
// work and surfaces on Next. Close stops the work too — a running
// worker between two elements, a pending one before it starts — and
// returns once no worker is left running.
func OrderedParallel[T any](makers []func() (Iterator[T], error), workers int) Iterator[T] {
	if workers < 1 {
		workers = 1
	}
	type result struct {
		items []T
		err   error
	}
	done := make([]chan result, len(makers))
	for i := range done {
		done[i] = make(chan result, 1)
	}
	stop := make(chan struct{})
	var stopOnce sync.Once
	cancel := func() { stopOnce.Do(func() { close(stop) }) }
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	// drain collects one maker's elements, checking for stop before each.
	drain := func(it Iterator[T]) ([]T, error) {
		defer it.Close()
		var out []T
		for !stopped() {
			v, ok, err := it.Next()
			if err != nil || !ok {
				return out, err
			}
			out = append(out, v)
		}
		return nil, errStopped
	}

	// running counts the dispatcher and the workers; the dispatcher's
	// own count keeps it above zero while it adds workers.
	var running sync.WaitGroup
	running.Add(1)
	sem := make(chan struct{}, workers)
	go func() {
		defer running.Done()
		for i, mk := range makers {
			select {
			case sem <- struct{}{}:
			case <-stop:
			}
			if stopped() { // select picks at random when both are ready
				done[i] <- result{err: errStopped}
				continue
			}
			running.Add(1)
			go func(i int, mk func() (Iterator[T], error)) {
				defer running.Done()
				defer func() { <-sem }()
				it, err := mk()
				if err != nil {
					done[i] <- result{err: err}
					return
				}
				items, err := drain(it)
				done[i] <- result{items: items, err: err}
			}(i, mk)
		}
	}()

	cur := 0
	var buf []T
	var pos int
	var failed error // sticky: once a maker errs, the stream stays dead
	return &Func[T]{
		NextFn: func() (T, bool, error) {
			var zero T
			if failed != nil {
				return zero, false, failed
			}
			for {
				if pos < len(buf) {
					v := buf[pos]
					pos++
					return v, true, nil
				}
				if cur >= len(makers) {
					return zero, false, nil
				}
				r := <-done[cur]
				cur++
				if r.err != nil {
					failed = r.err
					cancel()
					return zero, false, failed
				}
				buf, pos = r.items, 0
			}
		},
		CloseFn: func() {
			cancel()
			running.Wait()
		},
	}
}
