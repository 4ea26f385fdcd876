package relstore

import (
	"fmt"
	"strings"

	"repro/internal/model"
	"repro/internal/stream"
)

// Plan is a materializing physical query plan node. Run evaluates the
// subtree against a database and returns the result rows; Arity is the
// output width. Because model.Datum is dynamically typed, intermediate
// rows may carry semiring values produced by aggregation.
type Plan interface {
	Run(db *Database) ([]model.Tuple, error)
	Arity() int
	explain(sb *strings.Builder, indent int)
}

// Explain renders a plan tree for debugging and EXPLAIN-style output.
func Explain(p Plan) string {
	var sb strings.Builder
	p.explain(&sb, 0)
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

// Run implements Plan.
func (s *Scan) Run(db *Database) ([]model.Tuple, error) {
	t, ok := db.Table(s.Table)
	if !ok {
		return nil, fmt.Errorf("relstore: scan of unknown table %q", s.Table)
	}
	out := make([]model.Tuple, 0, t.Len())
	t.Iterate(func(row model.Tuple) bool {
		out = append(out, row)
		return true
	})
	return out, nil
}

// Arity implements Plan.
func (s *Scan) Arity() int { return s.Width }

func (s *Scan) explain(sb *strings.Builder, indent int) {
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

// Run implements Plan.
func (p *IndexProbe) Run(db *Database) ([]model.Tuple, error) {
	t, ok := db.Table(p.Table)
	if !ok {
		return nil, fmt.Errorf("relstore: probe of unknown table %q", p.Table)
	}
	if err := checkBound(p.Vals); err != nil {
		return nil, err
	}
	return t.Probe(p.Cols, p.Vals), nil
}

// Arity implements Plan.
func (p *IndexProbe) Arity() int { return p.Width }

func (p *IndexProbe) explain(sb *strings.Builder, indent int) {
	writeLine(sb, indent, "IndexProbe(%s cols=%v)", p.Table, p.Cols)
}

// PKLookup reads the at most one row of a keyed table whose primary key
// equals Key (values in key-column order).
type PKLookup struct {
	Table string
	Key   []model.Datum
	Width int
}

// Run implements Plan.
func (p *PKLookup) Run(db *Database) ([]model.Tuple, error) {
	t, ok := db.Table(p.Table)
	if !ok {
		return nil, fmt.Errorf("relstore: lookup in unknown table %q", p.Table)
	}
	if err := checkBound(p.Key); err != nil {
		return nil, err
	}
	if row, found := t.LookupKey(p.Key); found {
		return []model.Tuple{row}, nil
	}
	return nil, nil
}

// Arity implements Plan.
func (p *PKLookup) Arity() int { return p.Width }

func (p *PKLookup) explain(sb *strings.Builder, indent int) {
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

// Run implements Plan.
func (v *Values) Run(*Database) ([]model.Tuple, error) { return v.Rows, nil }

// Arity implements Plan.
func (v *Values) Arity() int {
	if len(v.Rows) == 0 {
		return 0
	}
	return len(v.Rows[0])
}

func (v *Values) explain(sb *strings.Builder, indent int) {
	writeLine(sb, indent, "Values(%d rows)", len(v.Rows))
}

// Filter keeps rows satisfying Pred.
type Filter struct {
	Input Plan
	Pred  Expr
}

// Run implements Plan.
func (f *Filter) Run(db *Database) ([]model.Tuple, error) {
	in, err := f.Input.Run(db)
	if err != nil {
		return nil, err
	}
	var out []model.Tuple
	for _, row := range in {
		ok, err := evalBool(f.Pred, row)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, row)
		}
	}
	return out, nil
}

// Arity implements Plan.
func (f *Filter) Arity() int { return f.Input.Arity() }

func (f *Filter) explain(sb *strings.Builder, indent int) {
	writeLine(sb, indent, "Filter(%s)", f.Pred)
	f.Input.explain(sb, indent+1)
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

// Run implements Plan.
func (p *Project) Run(db *Database) ([]model.Tuple, error) {
	in, err := p.Input.Run(db)
	if err != nil {
		return nil, err
	}
	out := make([]model.Tuple, 0, len(in))
	for _, row := range in {
		nr := make(model.Tuple, len(p.Exprs))
		for i, e := range p.Exprs {
			v, err := e.Eval(row)
			if err != nil {
				return nil, err
			}
			nr[i] = v
		}
		out = append(out, nr)
	}
	return out, nil
}

// Arity implements Plan.
func (p *Project) Arity() int { return len(p.Exprs) }

func (p *Project) explain(sb *strings.Builder, indent int) {
	parts := make([]string, len(p.Exprs))
	for i, e := range p.Exprs {
		parts[i] = e.String()
	}
	writeLine(sb, indent, "Project(%s)", strings.Join(parts, ", "))
	p.Input.explain(sb, indent+1)
}

// JoinType enumerates hash-join variants. The outer joins implement the
// ASR constructions of Section 5.1: a left outer join indexes a path
// and its prefixes, a right outer join a path and its suffixes, and a
// full outer join a path and all its subpaths.
type JoinType int

// Join types.
const (
	InnerJoin JoinType = iota
	LeftOuterJoin
	RightOuterJoin
	FullOuterJoin
)

func (j JoinType) String() string {
	switch j {
	case InnerJoin:
		return "inner"
	case LeftOuterJoin:
		return "left"
	case RightOuterJoin:
		return "right"
	case FullOuterJoin:
		return "full"
	}
	return "?"
}

// HashJoin joins two inputs on positional key columns. Rows with NULL
// in any key column never match (SQL semantics) but are preserved by
// the outer variants. Output rows are left columns followed by right
// columns, NULL-padded on the non-matching side of outer joins.
type HashJoin struct {
	Left, Right         Plan
	LeftKeys, RightKeys []int
	Type                JoinType
}

// Run implements Plan.
func (j *HashJoin) Run(db *Database) ([]model.Tuple, error) {
	if len(j.LeftKeys) != len(j.RightKeys) {
		return nil, fmt.Errorf("relstore: join key arity mismatch %d vs %d", len(j.LeftKeys), len(j.RightKeys))
	}
	left, err := j.Left.Run(db)
	if err != nil {
		return nil, err
	}
	right, err := j.Right.Run(db)
	if err != nil {
		return nil, err
	}
	lw, rw := j.Left.Arity(), j.Right.Arity()

	// Build on the right side.
	build := make(map[string][]int, len(right))
	for i, row := range right {
		if hasNullAt(row, j.RightKeys) {
			continue
		}
		k := encodeCols(row, j.RightKeys)
		build[k] = append(build[k], i)
	}
	rightMatched := make([]bool, len(right))
	var out []model.Tuple
	for _, lrow := range left {
		matched := false
		if !hasNullAt(lrow, j.LeftKeys) {
			k := encodeCols(lrow, j.LeftKeys)
			for _, ri := range build[k] {
				matched = true
				rightMatched[ri] = true
				out = append(out, concatRows(lrow, right[ri], lw, rw))
			}
		}
		if !matched && (j.Type == LeftOuterJoin || j.Type == FullOuterJoin) {
			out = append(out, concatRows(lrow, nil, lw, rw))
		}
	}
	if j.Type == RightOuterJoin || j.Type == FullOuterJoin {
		for i, rrow := range right {
			if !rightMatched[i] {
				out = append(out, concatRows(nil, rrow, lw, rw))
			}
		}
	}
	return out, nil
}

// Arity implements Plan.
func (j *HashJoin) Arity() int { return j.Left.Arity() + j.Right.Arity() }

func (j *HashJoin) explain(sb *strings.Builder, indent int) {
	writeLine(sb, indent, "HashJoin(%s, left=%v right=%v)", j.Type, j.LeftKeys, j.RightKeys)
	j.Left.explain(sb, indent+1)
	j.Right.explain(sb, indent+1)
}

// IndexJoin is an index nested-loop join: for every left row it fetches
// the rows of Table whose columns Cols equal the values of Keys
// (expressions over the left row, parallel to Cols) through the
// table's primary key or a secondary index, as laid out by Path =
// Table.ChooseAccess(Cols), whose Kind must not be AccessScan; residual
// columns are compared with model.Equal, type-strict like the probes. A
// left row with a NULL key value matches nothing. Output rows are the left
// columns followed by all of the table's columns. Unlike HashJoin it
// reads only the right rows that join, and it is not a pipeline breaker:
// Stream pulls one left row at a time and opens the right table only
// when the first one arrives.
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

// Run implements Plan.
func (j *IndexJoin) Run(db *Database) ([]model.Tuple, error) {
	return stream.Collect(Stream(j, db))
}

// Arity implements Plan.
func (j *IndexJoin) Arity() int {
	if j.Semi {
		return j.Left.Arity()
	}
	return j.Left.Arity() + j.Width
}

func (j *IndexJoin) explain(sb *strings.Builder, indent int) {
	part := func(positions []int) (cols []int, keys string) {
		ks := make([]string, len(positions))
		for i, p := range positions {
			cols = append(cols, j.Cols[p])
			ks[i] = j.Keys[p].String()
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
	j.Left.explain(sb, indent+1)
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
	copy(out, l) // nil l leaves NULLs
	if r != nil {
		copy(out[lw:], r)
	}
	return out
}

// UnionAll concatenates the outputs of same-arity inputs — the SQL
// UNION ALL that combines the per-derivation-shape conjunctive rules
// of Section 4.2.4.
type UnionAll struct {
	Inputs []Plan
}

// Run implements Plan.
func (u *UnionAll) Run(db *Database) ([]model.Tuple, error) {
	var out []model.Tuple
	for _, in := range u.Inputs {
		rows, err := in.Run(db)
		if err != nil {
			return nil, err
		}
		out = append(out, rows...)
	}
	return out, nil
}

// Arity implements Plan.
func (u *UnionAll) Arity() int {
	if len(u.Inputs) == 0 {
		return 0
	}
	return u.Inputs[0].Arity()
}

func (u *UnionAll) explain(sb *strings.Builder, indent int) {
	writeLine(sb, indent, "UnionAll(%d inputs)", len(u.Inputs))
	for _, in := range u.Inputs {
		in.explain(sb, indent+1)
	}
}

// Distinct removes duplicate rows. Rows containing non-encodable
// values (semiring annotations) cannot be deduplicated and cause an
// error; deduplicate before attaching annotations.
type Distinct struct {
	Input Plan
}

// Run implements Plan.
func (d *Distinct) Run(db *Database) ([]model.Tuple, error) {
	in, err := d.Input.Run(db)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool, len(in))
	var out []model.Tuple
	for _, row := range in {
		k := model.EncodeDatums(row)
		if !seen[k] {
			seen[k] = true
			out = append(out, row)
		}
	}
	return out, nil
}

// Arity implements Plan.
func (d *Distinct) Arity() int { return d.Input.Arity() }

func (d *Distinct) explain(sb *strings.Builder, indent int) {
	writeLine(sb, indent, "Distinct")
	d.Input.explain(sb, indent+1)
}

// AggSpec is one aggregate computed per group. Init produces the
// accumulator, Step folds a row in, Final extracts the output value.
// Semiring aggregation supplies Init = Zero and Step = Plus over an
// annotation column.
type AggSpec struct {
	Name  string
	Init  func() any
	Step  func(acc any, row model.Tuple) (any, error)
	Final func(acc any) model.Datum
}

// GroupBy groups input rows by GroupCols and computes Aggs per group.
// Output rows are the group columns followed by one column per
// aggregate. This is the final aggregation of Section 4.2.4 (GROUP BY
// tuple values, combine provenance with an aggregation function).
type GroupBy struct {
	Input     Plan
	GroupCols []int
	Aggs      []AggSpec
}

// Run implements Plan.
func (g *GroupBy) Run(db *Database) ([]model.Tuple, error) {
	in, err := g.Input.Run(db)
	if err != nil {
		return nil, err
	}
	type group struct {
		key  model.Tuple
		accs []any
	}
	groups := make(map[string]*group)
	var order []string
	for _, row := range in {
		k := encodeCols(row, g.GroupCols)
		grp, ok := groups[k]
		if !ok {
			keyRow := make(model.Tuple, len(g.GroupCols))
			for i, c := range g.GroupCols {
				keyRow[i] = row[c]
			}
			accs := make([]any, len(g.Aggs))
			for i, a := range g.Aggs {
				accs[i] = a.Init()
			}
			grp = &group{key: keyRow, accs: accs}
			groups[k] = grp
			order = append(order, k)
		}
		for i, a := range g.Aggs {
			grp.accs[i], err = a.Step(grp.accs[i], row)
			if err != nil {
				return nil, err
			}
		}
	}
	out := make([]model.Tuple, 0, len(groups))
	for _, k := range order {
		grp := groups[k]
		row := make(model.Tuple, len(g.GroupCols)+len(g.Aggs))
		copy(row, grp.key)
		for i, a := range g.Aggs {
			row[len(g.GroupCols)+i] = a.Final(grp.accs[i])
		}
		out = append(out, row)
	}
	return out, nil
}

// Arity implements Plan.
func (g *GroupBy) Arity() int { return len(g.GroupCols) + len(g.Aggs) }

func (g *GroupBy) explain(sb *strings.Builder, indent int) {
	names := make([]string, len(g.Aggs))
	for i, a := range g.Aggs {
		names[i] = a.Name
	}
	writeLine(sb, indent, "GroupBy(cols=%v aggs=%s)", g.GroupCols, strings.Join(names, ","))
	g.Input.explain(sb, indent+1)
}

// FilterFunc filters rows with an arbitrary Go predicate; it implements
// HAVING clauses over semiring annotation columns that Expr predicates
// cannot inspect.
type FilterFunc struct {
	Input Plan
	Desc  string
	Fn    func(model.Tuple) (bool, error)
}

// Run implements Plan.
func (f *FilterFunc) Run(db *Database) ([]model.Tuple, error) {
	in, err := f.Input.Run(db)
	if err != nil {
		return nil, err
	}
	var out []model.Tuple
	for _, row := range in {
		ok, err := f.Fn(row)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, row)
		}
	}
	return out, nil
}

// Arity implements Plan.
func (f *FilterFunc) Arity() int { return f.Input.Arity() }

func (f *FilterFunc) explain(sb *strings.Builder, indent int) {
	writeLine(sb, indent, "FilterFunc(%s)", f.Desc)
	f.Input.explain(sb, indent+1)
}
