package physplan

import (
	"slices"
	"strings"
)

// DistinctJoin is a HashJoin fused with the Dedup on the RETURN
// columns above it: it produces each distinct combination of returned
// values the join produces exactly once, and never materialises the
// join itself. It drains both inputs without keeping a row: the build
// side becomes, per join key, the sorted list of its distinct returned
// right-side values; the probe side becomes the distinct (returned
// left-side value, join key) pairs, sorted by left value — values
// numbered densely by interners that keep each value once. Each left
// value's group then unions the lists of its join keys through a stamp
// array (stamp[v] == group+1 once v was emitted for the group), so the
// cost is one map probe per input row, integer work per (group, key,
// value) triple and one answer row of int32 cells per output
// combination, written straight from the dense ids (answer) — the
// intermediate is bounded by the output, not by the join. each emits
// the same combinations as rows, for an Include above it.
//
// The rows it emits bind only the returned columns. The planner fuses
// only where that is unobservable: no authoritative filter between the
// join and the dedup, and no INCLUDE path reading a variable outside
// RETURN (Dedup's first-row-wins representative).
type DistinctJoin struct {
	join *HashJoin
	ret  []string
	// leftCols/rightCols are the returned columns bound by the probe
	// side and those only the build side binds, at RETURN positions
	// leftSlots/rightSlots.
	leftCols, rightCols   []int
	leftSlots, rightSlots []int
	cancel                func() error
}

func newDistinctJoin(j *HashJoin, ret []string, retCols []int, cancel func() error) *DistinctJoin {
	d := &DistinctJoin{join: j, ret: ret, cancel: cancel}
	right := j.right.(*Scan).bp // the planner builds a join's right side as a scan
	onRight := map[int]bool{}
	for _, c := range right.nodeCol {
		onRight[c] = true
	}
	for _, c := range right.edgeCol {
		onRight[c] = true
	}
	for _, c := range j.onCols {
		delete(onRight, c)
	}
	for i, c := range retCols {
		if onRight[c] {
			d.rightCols, d.rightSlots = append(d.rightCols, c), append(d.rightSlots, i)
		} else {
			d.leftCols, d.leftSlots = append(d.leftCols, c), append(d.leftSlots, i)
		}
	}
	return d
}

// Schema implements Op.
func (d *DistinctJoin) Schema() *Schema { return d.join.schema }

func (d *DistinctJoin) explain(sb *strings.Builder, indent int) {
	on := "cross"
	if len(d.join.on) > 0 {
		on = "on $" + strings.Join(d.join.on, ", $")
	}
	writeLine(sb, indent, "DistinctJoin(%s; distinct $%s)", on, strings.Join(d.ret, ", $"))
	d.join.left.explain(sb, indent+1)
	d.join.right.explain(sb, indent+1)
}

// interner numbers the distinct values of some columns densely. With
// keep it keeps each distinct combination's values once (vals,
// len(cols) per id) — never the row they came from, which the producer
// reuses.
type interner struct {
	keyer
	cols []int
	keep bool
	ids  map[uint64]int32
	vals []any
	n    int32
}

func newInterner(cols []int, keep bool) *interner {
	return &interner{cols: cols, keep: keep, ids: map[uint64]int32{}}
}

func (in *interner) id(r Row) int32 {
	k := in.key(r, in.cols)
	id, ok := in.ids[k]
	if !ok {
		id = in.n
		in.n++
		in.ids[k] = id
		if in.keep {
			for _, c := range in.cols {
				in.vals = append(in.vals, r[c])
			}
		}
	}
	return id
}

// lookup is id for values already numbered.
func (in *interner) lookup(r Row) (int32, bool) {
	id, ok := in.ids[in.key(r, in.cols)]
	return id, ok
}

// cells numbers the kept values in the answer's per-column tables —
// column j goes to tables[slots[j]] — and returns each combination's
// ids there, len(cols) per combination. A one-column interner's values
// are distinct already: they become the table as they are.
func (in *interner) cells(tables []table, slots []int) []int32 {
	w := len(in.cols)
	out := make([]int32, len(in.vals))
	if w == 1 {
		tables[slots[0]].vals = in.vals
		for i := range out {
			out[i] = int32(i)
		}
		return out
	}
	for j, s := range slots {
		for c := j; c < len(in.vals); c += w {
			out[c] = tables[s].id(in.vals[c])
		}
	}
	return out
}

// distinctRun is one execution of a DistinctJoin: both inputs read
// to dense ids.
type distinctRun struct {
	left, right *interner
	// Join key k's distinct right values are lists[off[k]:off[k+1]]
	// (join key << 32 | right value, sorted).
	lists []uint64
	off   []int32
	pairs []uint64 // distinct left value << 32 | join key, sorted
	stamp []int32
}

// run reads the build side, then the probe side.
func (d *DistinctJoin) run() (*distinctRun, error) {
	keys := newInterner(d.join.onCols, false)
	r := &distinctRun{left: newInterner(d.leftCols, true), right: newInterner(d.rightCols, true)}
	if err := d.join.right.each(func(row Row) bool {
		r.lists = push(r.lists, uint64(keys.id(row))<<32|uint64(r.right.id(row)))
		return true
	}); err != nil {
		return nil, err
	}
	slices.Sort(r.lists)
	r.lists = slices.Compact(r.lists)
	r.off = make([]int32, keys.n+1)
	for _, kv := range r.lists {
		r.off[kv>>32+1]++
	}
	for k := range keys.n {
		r.off[k+1] += r.off[k]
	}
	if err := d.join.left.each(func(row Row) bool {
		if k, ok := keys.lookup(row); ok {
			r.pairs = push(r.pairs, uint64(r.left.id(row))<<32|uint64(k))
		}
		return true
	}); err != nil {
		return nil, err
	}
	slices.Sort(r.pairs)
	r.pairs = slices.Compact(r.pairs)
	r.stamp = make([]int32, r.right.n)
	return r, nil
}

// combos passes every distinct combination to emit, as (left id,
// right id), one left value's group at a time, polling cancel before
// each group; it stops once emit returns false.
func (d *DistinctJoin) combos(r *distinctRun, emit func(l, v int32) bool) error {
	for i := 0; i < len(r.pairs); {
		if d.cancel != nil {
			if err := d.cancel(); err != nil {
				return err
			}
		}
		l := int32(r.pairs[i] >> 32)
		for ; i < len(r.pairs) && int32(r.pairs[i]>>32) == l; i++ {
			k := uint32(r.pairs[i])
			for _, kv := range r.lists[r.off[k]:r.off[k+1]] {
				if v := int32(uint32(kv)); r.stamp[v] != l+1 {
					r.stamp[v] = l + 1
					if !emit(l, v) {
						return nil
					}
				}
			}
		}
	}
	return nil
}

// answer computes the distinct combinations as answer cells, in RETURN
// order, written from the dense ids.
func (d *DistinctJoin) answer() (Answer, error) {
	r, err := d.run()
	if err != nil {
		return Answer{}, err
	}
	a := Answer{tables: make([]table, len(d.ret))}
	lc, rc := r.left.cells(a.tables, d.leftSlots), r.right.cells(a.tables, d.rightSlots)
	lw, rw := len(d.leftSlots), len(d.rightSlots)
	cell := make([]int32, len(d.ret)) // the answer row being written
	emit := func(l, v int32) bool {
		for j, s := range d.leftSlots {
			cell[s] = lc[int(l)*lw+j]
		}
		for j, s := range d.rightSlots {
			cell[s] = rc[int(v)*rw+j]
		}
		a.Cells = push(a.Cells, cell...)
		a.Rows++
		return true
	}
	if err := d.combos(r, emit); err != nil {
		return Answer{}, err
	}
	return a, nil
}

// each implements Op: the combinations as rows binding the returned
// columns, bound on one scratch row, for an Include above the join.
func (d *DistinctJoin) each(yield func(Row) bool) error {
	r, err := d.run()
	if err != nil {
		return err
	}
	out := make(Row, d.join.schema.Width())
	lw, rw := len(d.leftCols), len(d.rightCols)
	emit := func(l, v int32) bool {
		for j, c := range d.leftCols {
			out[c] = r.left.vals[int(l)*lw+j]
		}
		for j, c := range d.rightCols {
			out[c] = r.right.vals[int(v)*rw+j]
		}
		return yield(out)
	}
	return d.combos(r, emit)
}

// push appends vs to s, doubling its capacity when full: append grows a
// large slice by a quarter, so a big answer would be copied some five
// times its final size (the served multi-path query allocates 14.4 MB
// with append, 10.0 MB with push).
func push[T any](s []T, vs ...T) []T {
	if len(s)+len(vs) > cap(s) {
		s = slices.Grow(s, len(s)+len(vs))
	}
	return append(s, vs...)
}
