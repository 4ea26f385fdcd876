package physplan

import (
	"fmt"
	"strings"

	"repro/internal/stream"
)

// Op is a streaming physical operator. Open returns a fresh iterator
// over the operator's output rows; Schema describes the row layout.
// Every operator of one plan shares the plan-wide schema; the Project
// at its root narrows the answer to the RETURN variables.
type Op interface {
	Open() (stream.Iterator[Row], error)
	Schema() *Schema
	explain(sb *strings.Builder, indent int)
}

func writeLine(sb *strings.Builder, indent int, format string, args ...any) {
	for i := 0; i < indent; i++ {
		sb.WriteString("  ")
	}
	fmt.Fprintf(sb, format, args...)
	sb.WriteByte('\n')
}

// batchIter drains per-item row batches produced on demand — the
// streaming granularity of path matching is one start tuple (or one
// input row) at a time, whose matches form a batch.
type batchIter struct {
	produce func() ([]Row, bool, error)
	closeFn func()
	buf     []Row
	pos     int
}

func (b *batchIter) Next() (Row, bool, error) {
	for {
		if b.pos < len(b.buf) {
			r := b.buf[b.pos]
			b.pos++
			return r, true, nil
		}
		batch, ok, err := b.produce()
		if err != nil || !ok {
			return nil, false, err
		}
		b.buf, b.pos = batch, 0
	}
}

func (b *batchIter) Close() {
	if b.closeFn != nil {
		b.closeFn()
	}
}

// Scan enumerates the matches of one path expression over the whole
// graph, seeding from the narrowest available index.
type Scan struct {
	g      Graph
	bp     boundPath
	schema *Schema
	desc   string
	cancel func() error
}

// Schema implements Op.
func (s *Scan) Schema() *Schema { return s.schema }

func (s *Scan) explain(sb *strings.Builder, indent int) {
	writeLine(sb, indent, "Scan(%s, %s)", s.bp.path, s.desc)
}

// starts collects the scan's start tuples before any is matched, with
// the empty seed row the matches extend.
func (s *Scan) starts() (Row, []Tuple, error) {
	seed := make(Row, s.schema.Width())
	var starts []Tuple
	err := s.bp.eachStart(s.g, seed, true, func(t Tuple) bool {
		starts = append(starts, t)
		return true
	})
	return seed, starts, err
}

// Open implements Op.
func (s *Scan) Open() (stream.Iterator[Row], error) {
	seed, starts, err := s.starts()
	if err != nil {
		return nil, err
	}
	m := s.bp.newMatcher(s.g)
	rows := rowAlloc{width: s.schema.Width()}
	var batch []Row
	keep := func(r Row) bool {
		batch = append(batch, rows.copy(r))
		return true
	}
	i := 0
	return &batchIter{produce: func() ([]Row, bool, error) {
		// The consumer has drained the previous batch: reuse it.
		batch = batch[:0]
		for i < len(starts) {
			if s.cancel != nil {
				if err := s.cancel(); err != nil {
					return nil, false, err
				}
			}
			st := starts[i]
			i++
			m.matchStart(st, seed, keep)
			if len(batch) > 0 {
				return batch, true, nil
			}
		}
		return nil, false, nil
	}}, nil
}

// each passes every match to fn, borrowed — valid only during the call
// — polling cancel before every start tuple as Open does: the drain of
// a consumer that keeps no row.
func (s *Scan) each(fn func(Row)) error {
	seed, starts, err := s.starts()
	if err != nil {
		return err
	}
	m := s.bp.newMatcher(s.g)
	visit := func(r Row) bool {
		fn(r)
		return true
	}
	for _, st := range starts {
		if s.cancel != nil {
			if err := s.cancel(); err != nil {
				return err
			}
		}
		m.matchStart(st, seed, visit)
	}
	return nil
}

// Extend is the index-nested-loop join: for each input row it
// enumerates the path's extensions, resolving the start tuple from the
// row's bindings (goal-directed) or from the label indexes.
type Extend struct {
	input  Op
	g      Graph
	bp     boundPath
	schema *Schema
	desc   string
	cancel func() error
}

// Schema implements Op.
func (e *Extend) Schema() *Schema { return e.schema }

func (e *Extend) explain(sb *strings.Builder, indent int) {
	writeLine(sb, indent, "Extend(%s, %s)", e.bp.path, e.desc)
	e.input.explain(sb, indent+1)
}

// Open implements Op.
func (e *Extend) Open() (stream.Iterator[Row], error) {
	in, err := e.input.Open()
	if err != nil {
		return nil, err
	}
	m := e.bp.newMatcher(e.g)
	rows := rowAlloc{width: e.schema.Width()}
	var batch []Row
	keep := func(r Row) bool {
		batch = append(batch, rows.copy(r))
		return true
	}
	return &batchIter{
		produce: func() ([]Row, bool, error) {
			batch = batch[:0]
			for {
				if e.cancel != nil {
					if err := e.cancel(); err != nil {
						return nil, false, err
					}
				}
				row, ok, err := in.Next()
				if err != nil || !ok {
					return nil, false, err
				}
				if err := m.matchAll(row, keep); err != nil {
					return nil, false, err
				}
				if len(batch) > 0 {
					return batch, true, nil
				}
			}
		},
		closeFn: in.Close,
	}, nil
}

// HashJoin joins two sub-plans on their shared variables (an empty On
// list is a cross product). The right side is materialized into a hash
// table; the left side streams.
type HashJoin struct {
	left, right Op
	on          []string
	onCols      []int
	schema      *Schema
}

// Schema implements Op.
func (j *HashJoin) Schema() *Schema { return j.schema }

func (j *HashJoin) explain(sb *strings.Builder, indent int) {
	if len(j.on) == 0 {
		writeLine(sb, indent, "HashJoin(cross)")
	} else {
		writeLine(sb, indent, "HashJoin(on $%s)", strings.Join(j.on, ", $"))
	}
	j.left.explain(sb, indent+1)
	j.right.explain(sb, indent+1)
}

// Open implements Op.
func (j *HashJoin) Open() (stream.Iterator[Row], error) {
	var keys keyer
	build := map[uint64][]Row{}
	kept := rowAlloc{width: j.schema.Width()}
	if err := drain(j.right, func(row Row) {
		k := keys.key(row, j.onCols)
		build[k] = append(build[k], kept.copy(row))
	}); err != nil {
		return nil, err
	}
	lit, err := j.left.Open()
	if err != nil {
		return nil, err
	}
	rows := rowAlloc{width: j.schema.Width()}
	var batch []Row
	return &batchIter{
		produce: func() ([]Row, bool, error) {
			for {
				lrow, ok, err := lit.Next()
				if err != nil || !ok {
					return nil, false, err
				}
				matches := build[keys.key(lrow, j.onCols)]
				if len(matches) == 0 {
					continue
				}
				batch = batch[:0]
				for _, rrow := range matches {
					out := rows.row()
					copy(out, lrow)
					for c, v := range rrow {
						if out[c] == nil {
							out[c] = v
						}
					}
					batch = append(batch, out)
				}
				return batch, true, nil
			}
		},
		closeFn: lit.Close,
	}, nil
}

// FilterFn evaluates a predicate over a row; the schema is the plan
// schema the predicate was compiled against.
type FilterFn func(*Schema, Row) (bool, error)

// Filter keeps rows satisfying a compiled WHERE conjunct. A lenient
// filter is a pushed-down pruning copy running on partially joined
// rows: a predicate's value is stable once its variables are bound
// (extensions never rebind), so false rows can be dropped early, but
// evaluation errors must not surface for rows later joins would have
// pruned — the lenient copy passes them through and the authoritative
// end-of-pipeline filter re-evaluates, matching the interpreter's
// evaluate-after-all-paths error semantics.
type Filter struct {
	input   Op
	desc    string
	fn      FilterFn
	lenient bool
}

// Schema implements Op.
func (f *Filter) Schema() *Schema { return f.input.Schema() }

func (f *Filter) explain(sb *strings.Builder, indent int) {
	if f.lenient {
		writeLine(sb, indent, "Filter(prune: %s)", f.desc)
	} else {
		writeLine(sb, indent, "Filter(%s)", f.desc)
	}
	f.input.explain(sb, indent+1)
}

// Open implements Op.
func (f *Filter) Open() (stream.Iterator[Row], error) {
	in, err := f.input.Open()
	if err != nil {
		return nil, err
	}
	s := f.input.Schema()
	return &stream.Func[Row]{
		NextFn: func() (Row, bool, error) {
			for {
				row, ok, err := in.Next()
				if err != nil || !ok {
					return nil, false, err
				}
				keep, err := f.fn(s, row)
				if err != nil {
					if f.lenient {
						return row, true, nil
					}
					return nil, false, err
				}
				if keep {
					return row, true, nil
				}
			}
		},
		CloseFn: in.Close,
	}, nil
}

// Dedup keeps the first row per distinct combination of the given
// variables, keyed by node ordinals (collision-free, unlike string
// concatenation of node names).
type Dedup struct {
	input  Op
	on     []string
	onCols []int
}

// Schema implements Op.
func (d *Dedup) Schema() *Schema { return d.input.Schema() }

func (d *Dedup) explain(sb *strings.Builder, indent int) {
	writeLine(sb, indent, "Dedup($%s)", strings.Join(d.on, ", $"))
	d.input.explain(sb, indent+1)
}

// Open implements Op.
func (d *Dedup) Open() (stream.Iterator[Row], error) {
	in, err := d.input.Open()
	if err != nil {
		return nil, err
	}
	var keys keyer
	seen := map[uint64]struct{}{}
	return &stream.Func[Row]{
		NextFn: func() (Row, bool, error) {
			for {
				row, ok, err := in.Next()
				if err != nil || !ok {
					return nil, false, err
				}
				k := keys.key(row, d.onCols)
				if _, dup := seen[k]; dup {
					continue
				}
				seen[k] = struct{}{}
				return row, true, nil
			}
		},
		CloseFn: in.Close,
	}, nil
}

// Project is a plan's root: it narrows the answer to the RETURN
// variables, in order, handing the engine their values as cells
// (answer). Variables absent from the input schema project to nil (the
// engine reports them as unbound when assembling bindings, preserving
// the interpreter's error behavior).
type Project struct {
	input  Op
	cols   []string
	colIdx []int
	cancel func() error
}

func (p *Project) explain(sb *strings.Builder, indent int) {
	writeLine(sb, indent, "Project($%s)", strings.Join(p.cols, ", $"))
	p.input.explain(sb, indent+1)
}

// Answer is a plan's result as cells: per RETURN column a table of
// distinct values (Tuple or Deriv handles, nil for an unbound column),
// and per answer row one int32 cell per column indexing that column's
// table, row-major. A table holds every value its column's cells read,
// and may hold more (a join's build-side values no probe matched).
// Rows are distinct and in no particular order.
type Answer struct {
	Cells  []int32
	Rows   int
	tables []table
}

// Table returns column i's table.
func (a *Answer) Table(i int) []any { return a.tables[i].vals }

// answer runs the plan beneath p to its answer cells. A DistinctJoin
// writes them straight from its dense ids; any other input is drained
// once, each row's values numbered per column.
func (p *Project) answer() (Answer, error) {
	if d, ok := p.input.(*DistinctJoin); ok {
		return d.answer()
	}
	in, err := p.input.Open()
	if err != nil {
		return Answer{}, err
	}
	defer in.Close()
	a := Answer{tables: make([]table, len(p.colIdx))}
	for {
		if p.cancel != nil {
			if err := p.cancel(); err != nil {
				return Answer{}, err
			}
		}
		row, ok, err := in.Next()
		if err != nil {
			return Answer{}, err
		}
		if !ok {
			return a, nil
		}
		for i, c := range p.colIdx {
			var v any
			if c >= 0 {
				v = row[c]
			}
			a.Cells = append(a.Cells, a.tables[i].id(v))
		}
		a.Rows++
	}
}

// table numbers the distinct values of one answer column densely by
// node code: by a scan while it holds few (a point query's answer
// needs no map), by a map after.
type table struct {
	vals []any
	ids  map[uint64]int32
}

func (t *table) id(v any) int32 {
	k := nodeCode(v)
	if t.ids == nil {
		for i, u := range t.vals {
			if nodeCode(u) == k {
				return int32(i)
			}
		}
		if len(t.vals) < 8 {
			t.vals = append(t.vals, v)
			return int32(len(t.vals) - 1)
		}
		t.ids = make(map[uint64]int32, 2*len(t.vals))
		for i, u := range t.vals {
			t.ids[nodeCode(u)] = int32(i)
		}
	}
	id, ok := t.ids[k]
	if !ok {
		id = int32(len(t.vals))
		t.ids[k] = id
		t.vals = append(t.vals, v)
	}
	return id
}
