package physplan

import (
	"fmt"
	"strings"
)

// Op is a streaming physical operator. each runs it, passing its output
// rows to yield one at a time, borrowed: a row is valid only during the
// call, and a consumer that keeps it copies it. each stops without an
// error once yield returns false, and keeps its run state in the call,
// never on the node. Schema describes the row layout. Every operator of
// one plan shares the plan-wide schema; the Project at its root narrows
// the answer to the RETURN variables.
type Op interface {
	each(yield func(Row) bool) error
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

// Scan enumerates the matches of one path expression over the whole
// graph, seeding from the narrowest available index.
type Scan struct {
	g      Graph
	bp     boundPath
	schema *Schema
	start  startBinding
	cancel func() error
}

// Schema implements Op.
func (s *Scan) Schema() *Schema { return s.schema }

func (s *Scan) explain(sb *strings.Builder, indent int) {
	writeLine(sb, indent, "Scan(%s, %s)", s.bp.path, s.bp.startsDesc(s.start))
}

// each implements Op: the matches bound on the matcher's scratch row,
// polling cancel before every start tuple. The start tuples are all
// collected before any is matched; the matches extend an empty seed
// row.
func (s *Scan) each(yield func(Row) bool) error {
	seed := make(Row, s.schema.Width())
	var starts []Tuple
	if err := s.bp.eachStart(s.g, seed, true, func(t Tuple) bool {
		starts = append(starts, t)
		return true
	}); err != nil {
		return err
	}
	m := s.bp.newMatcher(s.g)
	for _, st := range starts {
		if s.cancel != nil {
			if err := s.cancel(); err != nil {
				return err
			}
		}
		if !m.matchStart(st, seed, yield) {
			return nil
		}
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
	start  startBinding
	cancel func() error
}

// Schema implements Op.
func (e *Extend) Schema() *Schema { return e.schema }

func (e *Extend) explain(sb *strings.Builder, indent int) {
	writeLine(sb, indent, "Extend(%s, %s)", e.bp.path, e.bp.startsDesc(e.start))
	e.input.explain(sb, indent+1)
}

// each implements Op: each input row's extensions, bound on the
// matcher's scratch row, polling cancel before every input row.
func (e *Extend) each(yield func(Row) bool) error {
	m := e.bp.newMatcher(e.g)
	var err error
	if ierr := e.input.each(func(row Row) bool {
		if e.cancel != nil {
			if err = e.cancel(); err != nil {
				return false
			}
		}
		var cont bool
		cont, err = m.matchAll(row, yield)
		return cont && err == nil
	}); ierr != nil {
		return ierr
	}
	return err
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

// each implements Op: the right side is copied into the hash table,
// then each left row's merges are bound on one scratch row.
func (j *HashJoin) each(yield func(Row) bool) error {
	var keys keyer
	build := map[uint64][]Row{}
	kept := rowAlloc{width: j.schema.Width()}
	if err := j.right.each(func(row Row) bool {
		k := keys.key(row, j.onCols)
		build[k] = append(build[k], kept.copy(row))
		return true
	}); err != nil {
		return err
	}
	out := make(Row, j.schema.Width())
	return j.left.each(func(lrow Row) bool {
		for _, rrow := range build[keys.key(lrow, j.onCols)] {
			copy(out, lrow)
			for c, v := range rrow {
				if out[c] == nil {
					out[c] = v
				}
			}
			if !yield(out) {
				return false
			}
		}
		return true
	})
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
	desc    fmt.Stringer
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

// each implements Op.
func (f *Filter) each(yield func(Row) bool) error {
	s := f.input.Schema()
	var err error
	if ierr := f.input.each(func(row Row) bool {
		keep, ferr := f.fn(s, row)
		if ferr != nil {
			if f.lenient {
				return yield(row)
			}
			err = ferr
			return false
		}
		return !keep || yield(row)
	}); ierr != nil {
		return ierr
	}
	return err
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

// each implements Op.
func (d *Dedup) each(yield func(Row) bool) error {
	var keys keyer
	var seen map[uint64]struct{}
	return d.input.each(func(row Row) bool {
		k := keys.key(row, d.onCols)
		if _, dup := seen[k]; dup {
			return true
		}
		if seen == nil {
			seen = map[uint64]struct{}{}
		}
		seen[k] = struct{}{}
		return yield(row)
	})
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
// writes them straight from its dense ids; any other input runs once,
// each row's values numbered per column, polling cancel before the run
// and after every row.
func (p *Project) answer() (Answer, error) {
	if d, ok := p.input.(*DistinctJoin); ok {
		return d.answer()
	}
	if p.cancel != nil {
		if err := p.cancel(); err != nil {
			return Answer{}, err
		}
	}
	a := Answer{tables: make([]table, len(p.colIdx))}
	var err error
	if ierr := p.input.each(func(row Row) bool {
		for i, c := range p.colIdx {
			var v any
			if c >= 0 {
				v = row[c]
			}
			a.Cells = append(a.Cells, a.tables[i].id(v))
		}
		a.Rows++
		if p.cancel != nil {
			err = p.cancel()
		}
		return err == nil
	}); ierr != nil {
		return Answer{}, ierr
	}
	if err != nil {
		return Answer{}, err
	}
	return a, nil
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
