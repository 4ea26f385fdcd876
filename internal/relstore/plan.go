package relstore

import (
	"fmt"
	"strings"

	"repro/internal/model"
	"repro/internal/stream"
)

// Plan is a physical query plan node; Stream runs it. Arity is the
// output width. open returns the node's row iterator with Param(i) read
// as args[i], opening the node's inputs the same way, and explain
// renders the node with its parameters so bound.
type Plan interface {
	Arity() int
	open(db *Database, args []model.Datum) stream.Iterator[model.Tuple]
	explain(sb *strings.Builder, indent int, args []model.Datum)
}

// Explain renders a plan tree for debugging and EXPLAIN-style output.
func Explain(p Plan) string {
	var sb strings.Builder
	p.explain(&sb, 0, nil)
	return sb.String()
}

func writeLine(sb *strings.Builder, indent int, format string, args ...any) {
	for i := 0; i < indent; i++ {
		sb.WriteString("  ")
	}
	fmt.Fprintf(sb, format, args...)
	sb.WriteByte('\n')
}

// Scan reads all rows of a table.
type Scan struct {
	Table string
	Width int
}

// open streams straight off the storage cursor, opening the table on
// the first Next.
func (s *Scan) open(db *Database, _ []model.Datum) stream.Iterator[model.Tuple] {
	var cur *Cursor
	return &stream.Func[model.Tuple]{
		NextFn: func() (model.Tuple, bool, error) {
			if cur == nil {
				t, ok := db.Table(s.Table)
				if !ok {
					return nil, false, fmt.Errorf("relstore: scan of unknown table %q", s.Table)
				}
				cur = t.Cursor()
			}
			row, ok := cur.Next()
			return row, ok, nil
		},
	}
}

// Arity implements Plan.
func (s *Scan) Arity() int { return s.Width }

func (s *Scan) explain(sb *strings.Builder, indent int, _ []model.Datum) {
	writeLine(sb, indent, "Scan(%s)", s.Table)
}

// IndexProbe reads the rows of a table whose Cols match constant Vals,
// using a secondary index when available. It implements the
// goal-directed evaluation of Section 4.2: "only evaluate provenance
// for the selected tuples".
type IndexProbe struct {
	Table string
	Cols  []int
	Vals  []model.Datum
	Width int
}

func (p *IndexProbe) open(db *Database, args []model.Datum) stream.Iterator[model.Tuple] {
	return deferred(func() ([]model.Tuple, error) {
		t, ok := db.Table(p.Table)
		if !ok {
			return nil, fmt.Errorf("relstore: probe of unknown table %q", p.Table)
		}
		var buf [64]byte
		enc, err := appendArgs(buf[:0], p.Vals, args)
		if err != nil {
			return nil, err
		}
		return t.probeEncoded(nil, IndexName(p.Cols), p.Cols, enc), nil
	})
}

// Arity implements Plan.
func (p *IndexProbe) Arity() int { return p.Width }

func (p *IndexProbe) explain(sb *strings.Builder, indent int, _ []model.Datum) {
	writeLine(sb, indent, "IndexProbe(%s cols=%v)", p.Table, p.Cols)
}

// PKLookup reads the at most one row of a keyed table whose primary key
// equals Key (values in key-column order).
type PKLookup struct {
	Table string
	Key   []model.Datum
	Width int
}

func (p *PKLookup) open(db *Database, args []model.Datum) stream.Iterator[model.Tuple] {
	return deferred(func() ([]model.Tuple, error) {
		t, ok := db.Table(p.Table)
		if !ok {
			return nil, fmt.Errorf("relstore: lookup in unknown table %q", p.Table)
		}
		var buf [64]byte
		enc, err := appendArgs(buf[:0], p.Key, args)
		if err != nil {
			return nil, err
		}
		if row, found := t.LookupKeyBytes(enc); found {
			return []model.Tuple{row}, nil
		}
		return nil, nil
	})
}

// Arity implements Plan.
func (p *PKLookup) Arity() int { return p.Width }

func (p *PKLookup) explain(sb *strings.Builder, indent int, _ []model.Datum) {
	writeLine(sb, indent, "PKLookup(%s)", p.Table)
}

// Select plans the read of the rows of t whose cols equal vals along
// the path t.ChooseAccess picks: a PKLookup or IndexProbe on the
// covered columns under a Filter on the residual ones, or a filtered
// Scan when neither the key nor an index is covered. Any of vals may
// be a Param.
func Select(t *Table, cols []int, vals []model.Datum) Plan {
	name, width := t.Schema.Name, len(t.Schema.Columns)
	if len(cols) == 0 {
		return &Scan{Table: name, Width: width}
	}
	path := t.ChooseAccess(cols)
	probeCols := make([]int, len(path.Probe))
	probeVals := make([]model.Datum, len(path.Probe))
	for i, p := range path.Probe {
		probeCols[i], probeVals[i] = cols[p], vals[p]
	}
	var plan Plan
	switch path.Kind {
	case AccessPK:
		plan = &PKLookup{Table: name, Key: probeVals, Width: width}
	case AccessIndex:
		plan = &IndexProbe{Table: name, Cols: probeCols, Vals: probeVals, Width: width}
	default:
		plan = &Scan{Table: name, Width: width}
	}
	if len(path.Residual) > 0 {
		preds := make([]Expr, len(path.Residual))
		for i, p := range path.Residual {
			preds[i] = Cmp{Op: EQ, L: Col(cols[p]), R: ValueExpr(vals[p])}
		}
		plan = &Filter{Input: plan, Pred: AndAll(preds)}
	}
	return plan
}

// Values returns a constant row set; used to seed plans with tuples of
// interest from a ProQL WHERE clause.
type Values struct {
	Rows []model.Tuple
}

func (v *Values) open(*Database, []model.Datum) stream.Iterator[model.Tuple] {
	return stream.FromSlice(v.Rows)
}

// Arity implements Plan.
func (v *Values) Arity() int {
	if len(v.Rows) == 0 {
		return 0
	}
	return len(v.Rows[0])
}

func (v *Values) explain(sb *strings.Builder, indent int, _ []model.Datum) {
	writeLine(sb, indent, "Values(%d rows)", len(v.Rows))
}

// Filter keeps rows satisfying Pred.
type Filter struct {
	Input Plan
	Pred  Expr
}

// open binds the predicate's parameters once.
func (f *Filter) open(db *Database, args []model.Datum) stream.Iterator[model.Tuple] {
	in := f.Input.open(db, args)
	pred := BindExpr(f.Pred, args)
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
}

// Arity implements Plan.
func (f *Filter) Arity() int { return f.Input.Arity() }

func (f *Filter) explain(sb *strings.Builder, indent int, args []model.Datum) {
	writeLine(sb, indent, "Filter(%s)", BindExpr(f.Pred, args))
	f.Input.explain(sb, indent+1, args)
}

// Project evaluates one expression per output column.
type Project struct {
	Input Plan
	Exprs []Expr
}

// ProjectCols builds a Project that selects input columns by position.
func ProjectCols(input Plan, cols ...int) *Project {
	exprs := make([]Expr, len(cols))
	for i, c := range cols {
		exprs[i] = Col(c)
	}
	return &Project{Input: input, Exprs: exprs}
}

func (p *Project) open(db *Database, args []model.Datum) stream.Iterator[model.Tuple] {
	in := p.Input.open(db, args)
	return &stream.Func[model.Tuple]{
		NextFn: func() (model.Tuple, bool, error) {
			row, ok, err := in.Next()
			if err != nil || !ok {
				return nil, false, err
			}
			nr := make(model.Tuple, len(p.Exprs))
			for i, e := range p.Exprs {
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
}

// Arity implements Plan.
func (p *Project) Arity() int { return len(p.Exprs) }

func (p *Project) explain(sb *strings.Builder, indent int, args []model.Datum) {
	parts := make([]string, len(p.Exprs))
	for i, e := range p.Exprs {
		parts[i] = e.String()
	}
	writeLine(sb, indent, "Project(%s)", strings.Join(parts, ", "))
	p.Input.explain(sb, indent+1, args)
}

// HashJoin is an inner join of two inputs on positional key columns.
// Rows with NULL in any key column never match (SQL semantics). Output
// rows are left columns followed by right columns. The right side is the
// build side, drained into a hash table on the first Next; the left side
// is then streamed, one probe row at a time.
type HashJoin struct {
	Left, Right         Plan
	LeftKeys, RightKeys []int
}

func (j *HashJoin) open(db *Database, args []model.Datum) stream.Iterator[model.Tuple] {
	return &hashJoinIter{j: j, db: db, args: args, left: j.Left.open(db, args), lw: j.Left.Arity(), rw: j.Right.Arity()}
}

// Arity implements Plan.
func (j *HashJoin) Arity() int { return j.Left.Arity() + j.Right.Arity() }

func (j *HashJoin) explain(sb *strings.Builder, indent int, args []model.Datum) {
	writeLine(sb, indent, "HashJoin(inner, left=%v right=%v)", j.LeftKeys, j.RightKeys)
	j.Left.explain(sb, indent+1, args)
	j.Right.explain(sb, indent+1, args)
}

// IndexJoin is an index nested-loop join: for every left row it fetches
// the rows of Table whose columns Cols equal the values of Keys
// (expressions over the left row, parallel to Cols) through the
// table's primary key or a secondary index, as laid out by Path =
// Table.ChooseAccess(Cols), whose Kind must not be AccessScan; residual
// columns are compared with model.Equal, type-strict like the probes. A
// left row with a NULL key value matches nothing. Output rows are the left
// columns followed by all of the table's columns. Unlike HashJoin it
// reads only the right rows that join and holds none of them: it pulls
// one left row at a time and opens the right table only when the first
// one arrives.
//
// Semi makes the join an existence check: a left row with a match is
// emitted itself, with no right columns and no copy. It is valid only
// on a primary-key path, where a left row has at most one match, so the
// semi-join returns exactly the rows of the join projected to the left
// columns, duplicates included.
type IndexJoin struct {
	Left  Plan
	Table string
	Width int
	Cols  []int
	Keys  []Expr
	Path  AccessPath
	Semi  bool
}

func (j *IndexJoin) open(db *Database, args []model.Datum) stream.Iterator[model.Tuple] {
	return &indexJoinIter{j: j, db: db, args: args, left: j.Left.open(db, args), lw: j.Left.Arity(), vals: make([]model.Datum, len(j.Keys))}
}

// Arity implements Plan.
func (j *IndexJoin) Arity() int {
	if j.Semi {
		return j.Left.Arity()
	}
	return j.Left.Arity() + j.Width
}

func (j *IndexJoin) explain(sb *strings.Builder, indent int, args []model.Datum) {
	part := func(positions []int) (cols []int, keys string) {
		ks := make([]string, len(positions))
		for i, p := range positions {
			cols = append(cols, j.Cols[p])
			ks[i] = BindExpr(j.Keys[p], args).String()
		}
		return cols, strings.Join(ks, ", ")
	}
	cols, keys := part(j.Path.Probe)
	op := "IndexJoin"
	if j.Semi {
		op = "SemiJoin"
	}
	line := fmt.Sprintf("%s(%s via %s cols=%v keys=[%s]", op, j.Table, j.Path.Kind, cols, keys)
	if len(j.Path.Residual) > 0 {
		cols, keys = part(j.Path.Residual)
		line += fmt.Sprintf(" residual cols=%v keys=[%s]", cols, keys)
	}
	writeLine(sb, indent, "%s)", line)
	j.Left.explain(sb, indent+1, args)
}

func hasNullAt(row model.Tuple, cols []int) bool {
	for _, c := range cols {
		if row[c] == nil {
			return true
		}
	}
	return false
}

func concatRows(l, r model.Tuple, lw, rw int) model.Tuple {
	out := make(model.Tuple, lw+rw)
	copy(out, l)
	copy(out[lw:], r)
	return out
}
