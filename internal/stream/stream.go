// Package stream defines the pull-based iterator abstraction shared by
// the ProQL physical-operator runtimes: the asr backend's operators
// (internal/proql/physplan) stream variable-binding rows through it,
// and the relational backend (internal/relstore) runs its plans as
// tuple streams through the same interface, so pipeline stages of
// either compose without materializing intermediate results.
package stream

// Iterator yields values one at a time. Next returns (value, true, nil)
// for each element, and (zero, false, err) when the stream is
// exhausted or failed. Close releases held inputs and must be safe to
// call multiple times and after exhaustion.
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
