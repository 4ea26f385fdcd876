package relstore

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/stream"
)

// Stream runs a plan as a pull-based tuple iterator, the stream.Iterator
// interface the asr backend's physical operators also produce. Every
// operator streams over its inputs; only HashJoin holds rows, draining
// its build side on the first Next. A Bound plan streams its template
// with the parameters resolved as each operator opens, copying no node.
func Stream(p Plan, db *Database) stream.Iterator[model.Tuple] {
	return p.open(db, nil)
}

// deferred streams the rows fill returns, calling it on the first Next,
// so a lookup opens its table when the plan is pulled, not when it is
// opened.
func deferred(fill func() ([]model.Tuple, error)) stream.Iterator[model.Tuple] {
	var rows *stream.Slice[model.Tuple]
	return &stream.Func[model.Tuple]{
		NextFn: func() (model.Tuple, bool, error) {
			if rows == nil {
				rs, err := fill()
				if err != nil {
					return nil, false, err
				}
				rows = stream.FromSlice(rs)
			}
			return rows.Next()
		},
	}
}

// hashJoinIter streams a HashJoin: the first Next drains the build
// (right) side into buckets by key; every Next after pulls left rows
// until one has a match and yields its matches in right-input order.
type hashJoinIter struct {
	j       *HashJoin
	db      *Database
	args    []model.Datum
	left    stream.Iterator[model.Tuple]
	lw, rw  int
	build   map[string][]model.Tuple // nil until the first Next
	lrow    model.Tuple
	matches []model.Tuple
}

func (it *hashJoinIter) drainBuild() error {
	j := it.j
	if len(j.LeftKeys) != len(j.RightKeys) {
		return fmt.Errorf("relstore: join key arity mismatch %d vs %d", len(j.LeftKeys), len(j.RightKeys))
	}
	right, err := stream.Collect(j.Right.open(it.db, it.args))
	if err != nil {
		return err
	}
	it.build = make(map[string][]model.Tuple, len(right))
	for _, row := range right {
		if !hasNullAt(row, j.RightKeys) {
			k := encodeCols(row, j.RightKeys)
			it.build[k] = append(it.build[k], row)
		}
	}
	return nil
}

// Next implements stream.Iterator.
func (it *hashJoinIter) Next() (model.Tuple, bool, error) {
	if it.build == nil {
		if err := it.drainBuild(); err != nil {
			return nil, false, err
		}
	}
	for len(it.matches) == 0 {
		lr, ok, err := it.left.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		if !hasNullAt(lr, it.j.LeftKeys) {
			it.lrow, it.matches = lr, it.build[encodeCols(lr, it.j.LeftKeys)]
		}
	}
	row := concatRows(it.lrow, it.matches[0], it.lw, it.rw)
	it.matches = it.matches[1:]
	return row, true, nil
}

// Close implements stream.Iterator.
func (it *hashJoinIter) Close() { it.left.Close() }

// indexJoinIter streams an IndexJoin: it pulls left rows one at a time
// and, for each, yields its matches from the right table's primary key
// or index.
type indexJoinIter struct {
	j         *IndexJoin
	db        *Database
	args      []model.Datum // values of the Params among the keys
	left      stream.Iterator[model.Tuple]
	lw        int
	right     *Table // opened when the first left row arrives
	probeCols []int
	ixName    string
	vals      []model.Datum // key values of the current left row
	enc       []byte        // reused probe-key encoding
	lrow      model.Tuple
	matches   []model.Tuple
	pos       int
}

func (it *indexJoinIter) open() error {
	j := it.j
	if len(j.Keys) != len(j.Cols) || j.Path.Kind == AccessScan {
		return fmt.Errorf("relstore: index join into %q has no key or index to probe", j.Table)
	}
	if j.Semi && j.Path.Kind != AccessPK {
		return fmt.Errorf("relstore: semi-join into %q needs a primary-key path", j.Table)
	}
	t, ok := it.db.Table(j.Table)
	if !ok {
		return fmt.Errorf("relstore: index join into unknown table %q", j.Table)
	}
	it.right = t
	it.probeCols = make([]int, len(j.Path.Probe))
	for i, p := range j.Path.Probe {
		it.probeCols[i] = j.Cols[p]
	}
	if j.Path.Kind == AccessIndex {
		it.ixName = IndexName(it.probeCols)
	}
	return nil
}

// fetch refills matches with the right rows joining lr.
func (it *indexJoinIter) fetch(lr model.Tuple) error {
	j := it.j
	it.lrow, it.pos, it.matches = lr, 0, it.matches[:0]
	for i, k := range j.Keys {
		var v model.Datum
		if p, ok := k.(Param); ok && int(p) < len(it.args) {
			v = it.args[p]
		} else {
			var err error
			if v, err = k.Eval(lr); err != nil {
				return err
			}
		}
		if v == nil {
			return nil
		}
		it.vals[i] = v
	}
	it.enc = it.enc[:0]
	for _, p := range j.Path.Probe {
		it.enc = model.AppendDatum(it.enc, it.vals[p])
	}
	if j.Path.Kind == AccessPK {
		if row, ok := it.right.LookupKeyBytes(it.enc); ok {
			it.matches = append(it.matches, row)
		}
	} else {
		it.matches = it.right.probeEncoded(it.matches, it.ixName, it.probeCols, it.enc)
	}
	if len(j.Path.Residual) == 0 {
		return nil
	}
	kept := it.matches[:0]
	for _, row := range it.matches {
		ok := true
		for _, p := range j.Path.Residual {
			if !model.Equal(row[j.Cols[p]], it.vals[p]) {
				ok = false
				break
			}
		}
		if ok {
			kept = append(kept, row)
		}
	}
	it.matches = kept
	return nil
}

// Next implements stream.Iterator.
func (it *indexJoinIter) Next() (model.Tuple, bool, error) {
	for it.pos >= len(it.matches) {
		lr, ok, err := it.left.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		if it.right == nil {
			if err := it.open(); err != nil {
				return nil, false, err
			}
		}
		if err := it.fetch(lr); err != nil {
			return nil, false, err
		}
	}
	if it.j.Semi {
		it.pos = len(it.matches) // the one match of a key
		return it.lrow, true, nil
	}
	row := concatRows(it.lrow, it.matches[it.pos], it.lw, it.j.Width)
	it.pos++
	return row, true, nil
}

// Close implements stream.Iterator.
func (it *indexJoinIter) Close() { it.left.Close() }
