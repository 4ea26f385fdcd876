package relstore

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/stream"
)

// Stream exposes a plan as a pull-based tuple iterator — the same
// stream.Iterator interface the asr backend's physical operators
// produce, so the engine can drain either backend through one loop.
// Pipeline operators (Filter, Project, FilterFunc, Distinct, UnionAll,
// IndexJoin) stream over their inputs without materializing; pipeline
// breakers (hash joins, grouping) materialize on first Next exactly as
// Run does. A Bound plan streams its template with the parameters
// resolved as each operator opens.
func Stream(p Plan, db *Database) stream.Iterator[model.Tuple] {
	return streamArgs(p, db, nil)
}

// streamArgs is Stream with the parameter values of an enclosing Bound.
func streamArgs(p Plan, db *Database, args []model.Datum) stream.Iterator[model.Tuple] {
	switch n := p.(type) {
	case *Bound:
		return streamArgs(n.Plan, db, n.Args)
	case *UnionAll:
		idx := 0
		var cur stream.Iterator[model.Tuple]
		return &stream.Func[model.Tuple]{
			NextFn: func() (model.Tuple, bool, error) {
				for {
					if cur == nil {
						if idx >= len(n.Inputs) {
							return nil, false, nil
						}
						cur = streamArgs(n.Inputs[idx], db, args)
						idx++
					}
					row, ok, err := cur.Next()
					if err != nil {
						return nil, false, err
					}
					if ok {
						return row, true, nil
					}
					cur.Close()
					cur = nil
				}
			},
			CloseFn: func() {
				if cur != nil {
					cur.Close()
				}
			},
		}
	case *Filter:
		in := streamArgs(n.Input, db, args)
		pred := BindExpr(n.Pred, args)
		return &stream.Func[model.Tuple]{
			NextFn: func() (model.Tuple, bool, error) {
				for {
					row, ok, err := in.Next()
					if err != nil || !ok {
						return nil, false, err
					}
					keep, err := evalBool(pred, row)
					if err != nil {
						return nil, false, err
					}
					if keep {
						return row, true, nil
					}
				}
			},
			CloseFn: in.Close,
		}
	case *FilterFunc:
		in := streamArgs(n.Input, db, args)
		return &stream.Func[model.Tuple]{
			NextFn: func() (model.Tuple, bool, error) {
				for {
					row, ok, err := in.Next()
					if err != nil || !ok {
						return nil, false, err
					}
					keep, err := n.Fn(row)
					if err != nil {
						return nil, false, err
					}
					if keep {
						return row, true, nil
					}
				}
			},
			CloseFn: in.Close,
		}
	case *Project:
		in := streamArgs(n.Input, db, args)
		return &stream.Func[model.Tuple]{
			NextFn: func() (model.Tuple, bool, error) {
				row, ok, err := in.Next()
				if err != nil || !ok {
					return nil, false, err
				}
				nr := make(model.Tuple, len(n.Exprs))
				for i, e := range n.Exprs {
					v, err := e.Eval(row)
					if err != nil {
						return nil, false, err
					}
					nr[i] = v
				}
				return nr, true, nil
			},
			CloseFn: in.Close,
		}
	case *Distinct:
		in := streamArgs(n.Input, db, args)
		seen := map[string]bool{}
		return &stream.Func[model.Tuple]{
			NextFn: func() (model.Tuple, bool, error) {
				for {
					row, ok, err := in.Next()
					if err != nil || !ok {
						return nil, false, err
					}
					k := model.EncodeDatums(row)
					if seen[k] {
						continue
					}
					seen[k] = true
					return row, true, nil
				}
			},
			CloseFn: in.Close,
		}
	case *Scan:
		// Table scans stream straight off the storage cursor — no
		// materialized row slice per drain.
		var cur *Cursor
		started := false
		return &stream.Func[model.Tuple]{
			NextFn: func() (model.Tuple, bool, error) {
				if !started {
					started = true
					t, ok := db.Table(n.Table)
					if !ok {
						return nil, false, fmt.Errorf("relstore: scan of unknown table %q", n.Table)
					}
					cur = t.Cursor()
				}
				if cur == nil {
					return nil, false, nil
				}
				row, ok := cur.Next()
				return row, ok, nil
			},
		}
	case *IndexJoin:
		return streamIndexJoin(n, db, args)
	default:
		// Pipeline breaker (IndexProbe, PKLookup, Values, HashJoin,
		// GroupBy): materialize lazily on first pull, parameters
		// substituted.
		var rows []model.Tuple
		started := false
		pos := 0
		return &stream.Func[model.Tuple]{
			NextFn: func() (model.Tuple, bool, error) {
				if !started {
					started = true
					var err error
					rows, err = Bind(p, args).Run(db)
					if err != nil {
						return nil, false, err
					}
				}
				if pos >= len(rows) {
					return nil, false, nil
				}
				row := rows[pos]
				pos++
				return row, true, nil
			},
		}
	}
}

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

func streamIndexJoin(j *IndexJoin, db *Database, args []model.Datum) stream.Iterator[model.Tuple] {
	return &indexJoinIter{j: j, db: db, args: args, left: streamArgs(j.Left, db, args), lw: j.Left.Arity(), vals: make([]model.Datum, len(j.Keys))}
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
