package relstore

import (
	"fmt"
	"strings"

	"repro/internal/model"
)

// Plan is a physical query plan node; Each runs it. Arity is the output
// width. run passes the node's output rows to yield, one at a time, with
// Param(i) read as args[i], running the node's inputs the same way; it
// stops without an error once yield returns false. Every operator
// pushes each row on as it arrives; only HashJoin holds rows, its build
// side. A run keeps its state in the call, never on the node, so one
// plan serves concurrent runs. explain renders the node with its
// parameters so bound.
type Plan interface {
	Arity() int
	run(db *Database, args []model.Datum, yield func(model.Tuple) bool) error
	explain(sb *strings.Builder, indent int, args []model.Datum)
}

// Each runs p over db, passing each output row to yield until yield
// returns false. Sources read under the table latch in batches and
// yield outside it, so yield may query any table, the scanned one
// included. Rows are the stored ones or fresh, never reused: yield may
// keep them but must not mutate them.
func Each(p Plan, db *Database, yield func(model.Tuple) bool) error {
	return p.run(db, nil, yield)
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

func (s *Scan) run(db *Database, _ []model.Datum, yield func(model.Tuple) bool) error {
	t, ok := db.Table(s.Table)
	if !ok {
		return fmt.Errorf("relstore: scan of unknown table %q", s.Table)
	}
	t.Iterate(yield)
	return nil
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
	Index Index
	Vals  []model.Datum
	Width int
}

func (p *IndexProbe) run(db *Database, args []model.Datum, yield func(model.Tuple) bool) error {
	t, ok := db.Table(p.Table)
	if !ok {
		return fmt.Errorf("relstore: probe of unknown table %q", p.Table)
	}
	var buf [64]byte
	enc, err := appendArgs(buf[:0], p.Vals, args)
	if err != nil {
		return err
	}
	t.ProbeEach(p.Index, enc, func(_ int, row model.Tuple) bool { return yield(row) })
	return nil
}

// Arity implements Plan.
func (p *IndexProbe) Arity() int { return p.Width }

func (p *IndexProbe) explain(sb *strings.Builder, indent int, _ []model.Datum) {
	writeLine(sb, indent, "IndexProbe(%s cols=%v)", p.Table, p.Index.Cols)
}

// PKLookup reads the at most one row of a keyed table whose primary key
// equals Key (values in key-column order).
type PKLookup struct {
	Table string
	Key   []model.Datum
	Width int
}

func (p *PKLookup) run(db *Database, args []model.Datum, yield func(model.Tuple) bool) error {
	t, ok := db.Table(p.Table)
	if !ok {
		return fmt.Errorf("relstore: lookup in unknown table %q", p.Table)
	}
	var buf [64]byte
	enc, err := appendArgs(buf[:0], p.Key, args)
	if err != nil {
		return err
	}
	if row, found := t.LookupKeyBytes(enc); found {
		yield(row)
	}
	return nil
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
	probeVals := make([]model.Datum, len(path.Probe))
	for i, p := range path.Probe {
		probeVals[i] = vals[p]
	}
	var plan Plan
	switch path.Kind {
	case AccessPK:
		plan = &PKLookup{Table: name, Key: probeVals, Width: width}
	case AccessIndex:
		plan = &IndexProbe{Table: name, Index: path.Index, Vals: probeVals, Width: width}
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

func (v *Values) run(_ *Database, _ []model.Datum, yield func(model.Tuple) bool) error {
	for _, row := range v.Rows {
		if !yield(row) {
			break
		}
	}
	return nil
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

// run binds the predicate's parameters once.
func (f *Filter) run(db *Database, args []model.Datum, yield func(model.Tuple) bool) error {
	pred := BindExpr(f.Pred, args)
	var err error
	if ierr := f.Input.run(db, args, func(row model.Tuple) bool {
		var keep bool
		if keep, err = evalBool(pred, row); err != nil {
			return false
		}
		return !keep || yield(row)
	}); ierr != nil {
		return ierr
	}
	return err
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

func (p *Project) run(db *Database, args []model.Datum, yield func(model.Tuple) bool) error {
	var err error
	if ierr := p.Input.run(db, args, func(row model.Tuple) bool {
		nr := make(model.Tuple, len(p.Exprs))
		for i, e := range p.Exprs {
			if nr[i], err = e.Eval(row); err != nil {
				return false
			}
		}
		return yield(nr)
	}); ierr != nil {
		return ierr
	}
	return err
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
// build side, drained into buckets by key before the left side runs; each
// left row then yields its matches in right-input order.
type HashJoin struct {
	Left, Right         Plan
	LeftKeys, RightKeys []int
}

func (j *HashJoin) run(db *Database, args []model.Datum, yield func(model.Tuple) bool) error {
	if len(j.LeftKeys) != len(j.RightKeys) {
		return fmt.Errorf("relstore: join key arity mismatch %d vs %d", len(j.LeftKeys), len(j.RightKeys))
	}
	build := map[string][]model.Tuple{}
	if err := j.Right.run(db, args, func(row model.Tuple) bool {
		if !hasNullAt(row, j.RightKeys) {
			k := encodeCols(row, j.RightKeys)
			build[k] = append(build[k], row)
		}
		return true
	}); err != nil {
		return err
	}
	lw, rw := j.Left.Arity(), j.Right.Arity()
	return j.Left.run(db, args, func(lr model.Tuple) bool {
		if hasNullAt(lr, j.LeftKeys) {
			return true
		}
		for _, r := range build[encodeCols(lr, j.LeftKeys)] {
			if !yield(concatRows(lr, r, lw, rw)) {
				return false
			}
		}
		return true
	})
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
// reads only the right rows that join and holds none of them: it yields
// each left row's matches as the row arrives and opens the right table
// only when the first one does.
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

func (j *IndexJoin) run(db *Database, args []model.Datum, yield func(model.Tuple) bool) error {
	r := &indexJoinRun{j: j, db: db, args: args, yield: yield, lw: j.Left.Arity()}
	if err := j.Left.run(db, args, r.row); err != nil {
		return err
	}
	return r.err
}

// indexJoinRun is one run of an IndexJoin: the right table, opened on
// the first left row, and the match buffer of its index probes.
type indexJoinRun struct {
	j       *IndexJoin
	db      *Database
	args    []model.Datum // values of the Params among the keys
	yield   func(model.Tuple) bool
	lw      int
	right   *Table
	matches []slotRow // reused by every index probe of the run
	err     error
}

func (r *indexJoinRun) open() error {
	j := r.j
	if len(j.Keys) != len(j.Cols) || j.Path.Kind == AccessScan {
		return fmt.Errorf("relstore: index join into %q has no key or index to probe", j.Table)
	}
	if j.Semi && j.Path.Kind != AccessPK {
		return fmt.Errorf("relstore: semi-join into %q needs a primary-key path", j.Table)
	}
	t, ok := r.db.Table(j.Table)
	if !ok {
		return fmt.Errorf("relstore: index join into unknown table %q", j.Table)
	}
	r.right = t
	return nil
}

// row yields the right rows joining one left row, recording a failure
// in err. The row's key values and probe encoding live on the stack.
func (r *indexJoinRun) row(lr model.Tuple) bool {
	j := r.j
	if r.right == nil {
		if r.err = r.open(); r.err != nil {
			return false
		}
	}
	var valBuf [4]model.Datum
	vals := valBuf[:0]
	for _, k := range j.Keys {
		var v model.Datum
		if p, ok := k.(Param); ok && int(p) < len(r.args) {
			v = r.args[p]
		} else if v, r.err = k.Eval(lr); r.err != nil {
			return false
		}
		if v == nil {
			return true // a NULL key matches nothing
		}
		vals = append(vals, v)
	}
	var encBuf [64]byte
	enc := encBuf[:0]
	for _, p := range j.Path.Probe {
		enc = model.AppendDatum(enc, vals[p])
	}
	var one [1]slotRow
	var matches []slotRow
	if j.Path.Kind == AccessPK {
		if slot, row, ok := r.right.LookupKeySlot(enc); ok {
			one[0] = slotRow{slot, row}
			matches = one[:]
		}
	} else {
		r.matches = r.right.probeEncoded(r.matches[:0], j.Path.Index, enc)
		matches = r.matches
	}
	for _, m := range matches {
		if !residualHolds(j, m.row, vals) {
			continue
		}
		if j.Semi {
			return r.yield(lr) // the one match of a key
		}
		if !r.yield(concatRows(lr, m.row, r.lw, j.Width)) {
			return false
		}
	}
	return true
}

// residualHolds reports whether row's residual columns equal their key
// values.
func residualHolds(j *IndexJoin, row model.Tuple, vals []model.Datum) bool {
	for _, p := range j.Path.Residual {
		if !model.Equal(row[j.Cols[p]], vals[p]) {
			return false
		}
	}
	return true
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
