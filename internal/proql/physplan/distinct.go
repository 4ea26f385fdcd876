package physplan

import (
	"slices"
	"strings"

	"repro/internal/stream"
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
// intermediate is bounded by the output, not by the join. Open emits
// the same combinations as rows, one batch per left value, for an
// Include above it.
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

// distinctRun is one execution of a DistinctJoin: both inputs drained
// to dense ids, and the left groups emitted so far.
type distinctRun struct {
	left, right *interner
	// Join key k's distinct right values are lists[off[k]:off[k+1]]
	// (join key << 32 | right value, sorted).
	lists []uint64
	off   []int32
	pairs []uint64 // distinct left value << 32 | join key, sorted
	stamp []int32
	next  int // index in pairs of the next group
}

// run drains the build side, then the probe side.
func (d *DistinctJoin) run() (*distinctRun, error) {
	keys := newInterner(d.join.onCols, false)
	r := &distinctRun{left: newInterner(d.leftCols, true), right: newInterner(d.rightCols, true)}
	if err := drain(d.join.right, func(row Row) {
		r.lists = push(r.lists, uint64(keys.id(row))<<32|uint64(r.right.id(row)))
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
	if err := drain(d.join.left, func(row Row) {
		if k, ok := keys.lookup(row); ok {
			r.pairs = push(r.pairs, uint64(r.left.id(row))<<32|uint64(k))
		}
	}); err != nil {
		return nil, err
	}
	slices.Sort(r.pairs)
	r.pairs = slices.Compact(r.pairs)
	r.stamp = make([]int32, r.right.n)
	return r, nil
}

// group passes the next left value's new combinations to emit, as
// (left id, right id), polling cancel first; false once every group
// was emitted.
func (d *DistinctJoin) group(r *distinctRun, emit func(l, v int32)) (bool, error) {
	if r.next == len(r.pairs) {
		return false, nil
	}
	if d.cancel != nil {
		if err := d.cancel(); err != nil {
			return false, err
		}
	}
	l := int32(r.pairs[r.next] >> 32)
	for ; r.next < len(r.pairs) && int32(r.pairs[r.next]>>32) == l; r.next++ {
		k := uint32(r.pairs[r.next])
		for _, kv := range r.lists[r.off[k]:r.off[k+1]] {
			if v := int32(uint32(kv)); r.stamp[v] != l+1 {
				r.stamp[v] = l + 1
				emit(l, v)
			}
		}
	}
	return true, nil
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
	emit := func(l, v int32) {
		for j, s := range d.leftSlots {
			cell[s] = lc[int(l)*lw+j]
		}
		for j, s := range d.rightSlots {
			cell[s] = rc[int(v)*rw+j]
		}
		a.Cells = push(a.Cells, cell...)
		a.Rows++
	}
	for {
		ok, err := d.group(r, emit)
		if err != nil {
			return Answer{}, err
		}
		if !ok {
			return a, nil
		}
	}
}

// Open implements Op: the combinations as rows binding the returned
// columns, one batch per left value, for an Include above the join.
func (d *DistinctJoin) Open() (stream.Iterator[Row], error) {
	r, err := d.run()
	if err != nil {
		return nil, err
	}
	rows := rowAlloc{width: d.join.schema.Width()}
	lw, rw := len(d.leftCols), len(d.rightCols)
	var batch []Row
	emit := func(l, v int32) {
		out := rows.row()
		for j, c := range d.leftCols {
			out[c] = r.left.vals[int(l)*lw+j]
		}
		for j, c := range d.rightCols {
			out[c] = r.right.vals[int(v)*rw+j]
		}
		batch = append(batch, out)
	}
	return &batchIter{produce: func() ([]Row, bool, error) {
		batch = batch[:0]
		for {
			if ok, err := d.group(r, emit); err != nil || !ok {
				return nil, false, err
			}
			if len(batch) > 0 {
				return batch, true, nil
			}
		}
	}}, nil
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

// drain passes every row of op to fn, borrowed: fn copies what it
// keeps. A Scan hands over its matcher's scratch row, so no row is
// copied per match.
func drain(op Op, fn func(Row)) error {
	if s, ok := op.(*Scan); ok {
		return s.each(fn)
	}
	it, err := op.Open()
	if err != nil {
		return err
	}
	defer it.Close()
	for {
		row, ok, err := it.Next()
		if err != nil || !ok {
			return err
		}
		fn(row)
	}
}
