package physplan

import (
	"slices"
	"strings"

	"repro/internal/stream"
)

// DistinctJoin is a HashJoin fused with the Dedup on the RETURN
// columns above it: it emits each distinct combination of returned
// values the join produces exactly once, and never materialises the
// join itself. The build side becomes, per join key, the sorted list of
// its distinct returned right-side values; the probe side becomes the
// distinct (returned left-side value, join key) pairs, sorted by left
// value. Each left value's group then unions the lists of its join keys
// through a stamp array (stamp[v] == group+1 once v was emitted for the
// group), so the cost is one map probe per input row, integer work per
// (group, key, value) triple and one row per output combination — the
// intermediate is bounded by the output, not by the join.
//
// The rows it emits bind only the returned columns. The planner fuses
// only where that is unobservable: no authoritative filter between the
// join and the dedup, and no INCLUDE path reading a variable outside
// RETURN (Dedup's first-row-wins representative).
type DistinctJoin struct {
	join *HashJoin
	ret  []string
	// leftCols/rightCols are the returned columns bound by the probe
	// side and those only the build side binds.
	leftCols, rightCols []int
	cancel              func() error
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
	for _, c := range retCols {
		if onRight[c] {
			d.rightCols = append(d.rightCols, c)
		} else {
			d.leftCols = append(d.leftCols, c)
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

// interner numbers the distinct values of some columns densely,
// remembering the first row seen with each.
type interner struct {
	keyer
	cols []int
	ids  map[uint64]int32
	reps []Row
}

func newInterner(cols []int) *interner {
	return &interner{cols: cols, ids: map[uint64]int32{}}
}

func (in *interner) id(r Row) int32 {
	k := in.key(r, in.cols)
	id, ok := in.ids[k]
	if !ok {
		id = int32(len(in.reps))
		in.ids[k] = id
		in.reps = append(in.reps, r)
	}
	return id
}

// lookup is id for values already numbered.
func (in *interner) lookup(r Row) (int32, bool) {
	id, ok := in.ids[in.key(r, in.cols)]
	return id, ok
}

// Open implements Op.
func (d *DistinctJoin) Open() (stream.Iterator[Row], error) {
	keys, right := newInterner(d.join.onCols), newInterner(d.rightCols)
	var lists [][]int32 // join key → distinct right values
	if err := drain(d.join.right, func(r Row) {
		k := keys.id(r)
		if int(k) == len(lists) {
			lists = append(lists, nil)
		}
		lists[k] = append(lists[k], right.id(r))
	}); err != nil {
		return nil, err
	}
	for k, l := range lists {
		slices.Sort(l)
		lists[k] = slices.Compact(l)
	}
	left := newInterner(d.leftCols)
	var pairs []uint64 // left value << 32 | join key
	if err := drain(d.join.left, func(l Row) {
		if k, ok := keys.lookup(l); ok {
			pairs = append(pairs, uint64(left.id(l))<<32|uint64(k))
		}
	}); err != nil {
		return nil, err
	}
	slices.Sort(pairs)
	pairs = slices.Compact(pairs)

	stamp := make([]int32, len(right.reps))
	rows := rowAlloc{width: d.join.schema.Width()}
	var batch []Row
	i := 0
	return &batchIter{produce: func() ([]Row, bool, error) {
		batch = batch[:0]
		for i < len(pairs) {
			if d.cancel != nil {
				if err := d.cancel(); err != nil {
					return nil, false, err
				}
			}
			group := int32(pairs[i] >> 32)
			l := left.reps[group]
			for ; i < len(pairs) && int32(pairs[i]>>32) == group; i++ {
				for _, v := range lists[uint32(pairs[i])] {
					if stamp[v] == group+1 {
						continue
					}
					stamp[v] = group + 1
					out := rows.row()
					for _, c := range d.leftCols {
						out[c] = l[c]
					}
					r := right.reps[v]
					for _, c := range d.rightCols {
						out[c] = r[c]
					}
					batch = append(batch, out)
				}
			}
			if len(batch) > 0 {
				return batch, true, nil
			}
		}
		return nil, false, nil
	}}, nil
}

// drain opens op and passes every row to fn.
func drain(op Op, fn func(Row)) error {
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
