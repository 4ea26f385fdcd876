package physplan

import (
	"fmt"
	"strings"

	"repro/internal/stream"
)

// Op is a streaming physical operator. Open returns a fresh iterator
// over the operator's output rows; Schema describes the row layout.
// Every operator of one plan shares the plan-wide schema except
// Project, which narrows it.
type Op interface {
	Open() (stream.Iterator[Row], error)
	Schema() *Schema
	explain(sb *strings.Builder, indent int)
}

// Explain renders an operator tree, one operator per line, children
// indented under parents.
func Explain(root Op) string {
	var sb strings.Builder
	root.explain(&sb, 0)
	return sb.String()
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
	est    float64
	cancel func() error
}

// Schema implements Op.
func (s *Scan) Schema() *Schema { return s.schema }

func (s *Scan) explain(sb *strings.Builder, indent int) {
	writeLine(sb, indent, "Scan(%s, %s, est=%.0f)", s.bp.path, s.desc, s.est)
}

// Open implements Op.
func (s *Scan) Open() (stream.Iterator[Row], error) {
	seed := make(Row, s.schema.Width())
	var starts []Tuple
	if err := s.bp.eachStart(s.g, seed, true, func(t Tuple) bool {
		starts = append(starts, t)
		return true
	}); err != nil {
		return nil, err
	}
	m := s.bp.newMatcher(s.g)
	var batch []Row
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
			m.matchStart(st, seed, func(r Row) bool {
				batch = append(batch, r)
				return true
			})
			if len(batch) > 0 {
				return batch, true, nil
			}
		}
		return nil, false, nil
	}}, nil
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
	var batch []Row
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
				if err := m.matchAll(row, func(r Row) bool {
					batch = append(batch, r)
					return true
				}); err != nil {
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
	if err := drain(j.right, func(row Row) {
		k := keys.key(row, j.onCols)
		build[k] = append(build[k], row)
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

// Project narrows rows to the given variables, in order. Variables
// absent from the input schema project to nil (the engine reports them
// as unbound when assembling bindings, preserving the interpreter's
// error behavior).
type Project struct {
	input  Op
	cols   []string
	colIdx []int
	schema *Schema
}

// Schema implements Op.
func (p *Project) Schema() *Schema { return p.schema }

func (p *Project) explain(sb *strings.Builder, indent int) {
	writeLine(sb, indent, "Project($%s)", strings.Join(p.cols, ", $"))
	p.input.explain(sb, indent+1)
}

// Open implements Op.
func (p *Project) Open() (stream.Iterator[Row], error) {
	in, err := p.input.Open()
	if err != nil {
		return nil, err
	}
	rows := rowAlloc{width: len(p.colIdx)}
	return &stream.Func[Row]{
		NextFn: func() (Row, bool, error) {
			row, ok, err := in.Next()
			if err != nil || !ok {
				return nil, false, err
			}
			out := rows.row()
			for i, c := range p.colIdx {
				if c >= 0 {
					out[i] = row[c]
				}
			}
			return out, true, nil
		},
		CloseFn: in.Close,
	}, nil
}
