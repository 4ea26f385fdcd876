package relstore

import (
	"testing"

	"repro/internal/model"
)

func intCol(name string) model.Column { return model.Column{Name: name, Type: model.TypeInt} }
func strCol(name string) model.Column { return model.Column{Name: name, Type: model.TypeString} }

func newKeyedTable(t *testing.T, db *Database, name string) *Table {
	t.Helper()
	tbl, err := db.CreateTable(&TableSchema{
		Name:    name,
		Columns: []model.Column{intCol("id"), strCol("v")},
		Key:     []int{0},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestTableInsertSetSemantics(t *testing.T) {
	db := NewDatabase()
	tbl := newKeyedTable(t, db, "R")
	ins, err := tbl.Insert(model.Tuple{int64(1), "a"})
	if err != nil || !ins {
		t.Fatalf("first insert: %v %v", ins, err)
	}
	ins, err = tbl.Insert(model.Tuple{int64(1), "b"})
	if err != nil || ins {
		t.Fatalf("duplicate key should be ignored: %v %v", ins, err)
	}
	if tbl.Len() != 1 {
		t.Errorf("Len = %d", tbl.Len())
	}
	row, ok := tbl.LookupKey([]model.Datum{int64(1)})
	if !ok || row[1] != "a" {
		t.Errorf("LookupKey = %v %v", row, ok)
	}
	if _, err := tbl.Insert(model.Tuple{int64(2)}); err == nil {
		t.Error("arity mismatch should error")
	}
}

func TestTableDeleteAndSlotReuse(t *testing.T) {
	db := NewDatabase()
	tbl := newKeyedTable(t, db, "R")
	for i := int64(0); i < 5; i++ {
		tbl.Insert(model.Tuple{i, "x"})
	}
	ok, err := tbl.Delete([]model.Datum{int64(2)})
	if err != nil || !ok {
		t.Fatalf("delete: %v %v", ok, err)
	}
	if ok, _ := tbl.Delete([]model.Datum{int64(2)}); ok {
		t.Error("double delete should report false")
	}
	if tbl.Len() != 4 {
		t.Errorf("Len = %d", tbl.Len())
	}
	// Reinsert reuses the freed slot.
	tbl.Insert(model.Tuple{int64(9), "y"})
	if tbl.Len() != 5 {
		t.Errorf("Len after reinsert = %d", tbl.Len())
	}
	if _, ok := tbl.LookupKey([]model.Datum{int64(9)}); !ok {
		t.Error("reinserted row missing")
	}
	rows := tbl.Rows()
	if len(rows) != 5 {
		t.Errorf("Rows() = %d", len(rows))
	}
	for _, r := range rows {
		if r == nil {
			t.Error("Rows leaked a deleted slot")
		}
	}
}

func TestTableIterateAndCursor(t *testing.T) {
	db := NewDatabase()
	tbl := newKeyedTable(t, db, "R")
	for i := int64(0); i < 5; i++ {
		tbl.Insert(model.Tuple{i, "x"})
	}
	tbl.Delete([]model.Datum{int64(2)})

	// Iterate visits exactly the live rows and honors early stop.
	var seen []int64
	tbl.Iterate(func(row model.Tuple) bool {
		seen = append(seen, row[0].(int64))
		return true
	})
	if len(seen) != 4 {
		t.Errorf("Iterate visited %d rows, want 4", len(seen))
	}
	for _, id := range seen {
		if id == 2 {
			t.Error("Iterate visited a deleted row")
		}
	}
	stops := 0
	tbl.Iterate(func(model.Tuple) bool {
		stops++
		return stops < 2
	})
	if stops != 2 {
		t.Errorf("early-stop Iterate visited %d rows, want 2", stops)
	}

	// A plan's Scan yields the same live rows in the same order.
	var fromScan []int64
	if err := Each(&Scan{Table: "R", Width: 2}, db, func(row model.Tuple) bool {
		fromScan = append(fromScan, row[0].(int64))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(fromScan) != len(seen) {
		t.Fatalf("Scan visited %d rows, Iterate %d", len(fromScan), len(seen))
	}
	for i := range seen {
		if fromScan[i] != seen[i] {
			t.Errorf("row %d: scan %d, iterate %d", i, fromScan[i], seen[i])
		}
	}
}

func TestStreamScanCursors(t *testing.T) {
	// Scan yields each live row as it reads it, skipping deleted slots,
	// and stops reading once yield returns false.
	db := NewDatabase()
	tbl := newKeyedTable(t, db, "R")
	for i := int64(0); i < 6; i++ {
		tbl.Insert(model.Tuple{i, "x"})
	}
	tbl.Delete([]model.Datum{int64(3)})
	n := 0
	if err := Each(&Scan{Table: "R", Width: 2}, db, func(row model.Tuple) bool {
		if row[0].(int64) == 3 {
			t.Error("streamed a deleted row")
		}
		n++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Errorf("streamed %d rows, want 5", n)
	}
	n = 0
	if err := Each(&Scan{Table: "R", Width: 2}, db, func(model.Tuple) bool {
		n++
		return n < 2
	}); err != nil || n != 2 {
		t.Errorf("early stop: %d rows, err %v; want 2, nil", n, err)
	}
	// An unknown table fails the run without yielding.
	if err := Each(&Scan{Table: "nope", Width: 1}, db, func(model.Tuple) bool {
		t.Error("yielded a row of an unknown table")
		return true
	}); err == nil {
		t.Error("unknown table should error")
	}
}

func TestSecondaryIndexProbe(t *testing.T) {
	db := NewDatabase()
	tbl := newKeyedTable(t, db, "R")
	tbl.Insert(model.Tuple{int64(1), "a"})
	tbl.Insert(model.Tuple{int64(2), "a"})
	tbl.Insert(model.Tuple{int64(3), "b"})
	// Probe without index scans.
	got := tbl.Probe(IndexOn([]int{1}), []model.Datum{"a"})
	if len(got) != 2 {
		t.Fatalf("scan probe = %d rows", len(got))
	}
	tbl.CreateIndex([]int{1})
	if !tbl.HasIndex([]int{1}) || tbl.HasIndex([]int{0, 1}) {
		t.Error("HasIndex wrong")
	}
	got = tbl.Probe(IndexOn([]int{1}), []model.Datum{"a"})
	if len(got) != 2 {
		t.Fatalf("index probe = %d rows", len(got))
	}
	// Index maintained under insert and delete.
	tbl.Insert(model.Tuple{int64(4), "a"})
	tbl.Delete([]model.Datum{int64(1)})
	got = tbl.Probe(IndexOn([]int{1}), []model.Datum{"a"})
	if len(got) != 2 {
		t.Fatalf("index probe after churn = %d rows", len(got))
	}
}

func TestDatabaseOps(t *testing.T) {
	db := NewDatabase()
	newKeyedTable(t, db, "R")
	if _, err := db.CreateTable(&TableSchema{Name: "R", Columns: []model.Column{intCol("x")}}); err == nil {
		t.Error("duplicate table should error")
	}
	if _, ok := db.Table("R"); !ok {
		t.Error("table lookup failed")
	}
	if _, ok := db.Table("Z"); ok {
		t.Error("phantom table")
	}
	names := db.TableNames()
	if len(names) != 1 || names[0] != "R" {
		t.Errorf("TableNames = %v", names)
	}
	db.MustTable("R").Insert(model.Tuple{int64(1), "a"})
	if db.TotalRows() != 1 {
		t.Errorf("TotalRows = %d", db.TotalRows())
	}
	db.DropTable("R")
	if _, ok := db.Table("R"); ok {
		t.Error("drop failed")
	}
}

func TestExprEval(t *testing.T) {
	row := model.Tuple{int64(5), "abc", nil, 2.5}
	cases := []struct {
		e    Expr
		want model.Datum
	}{
		{Cmp{EQ, Col(0), Lit{int64(5)}}, true},
		{Cmp{EQ, Col(0), Lit{2.5}}, false},
		{Cmp{LT, Col(0), Lit{5.5}}, true}, // numeric coercion
		{Cmp{GE, Col(3), Lit{int64(2)}}, true},
		{Cmp{NE, Col(1), Lit{"abc"}}, false},
		{Cmp{EQ, Col(2), Lit{nil}}, false}, // NULL compares false
		{IsNull{Col(2)}, true},
		{IsNull{Col(0)}, false},
		{And{Cmp{EQ, Col(0), Lit{int64(5)}}, Cmp{EQ, Col(1), Lit{"abc"}}}, true},
		{Or{Cmp{EQ, Col(0), Lit{int64(0)}}, Cmp{EQ, Col(1), Lit{"abc"}}}, true},
		{Not{Cmp{EQ, Col(0), Lit{int64(5)}}}, false},
		{TrueExpr{}, true},
	}
	for _, c := range cases {
		got, err := c.e.Eval(row)
		if err != nil {
			t.Errorf("%s: %v", c.e, err)
			continue
		}
		if got != c.want {
			t.Errorf("%s = %v, want %v", c.e, got, c.want)
		}
	}
	if _, err := (Col(9)).Eval(row); err == nil {
		t.Error("out-of-range column should error")
	}
	if _, err := evalBool(Lit{int64(1)}, row); err == nil {
		t.Error("non-bool predicate should error")
	}
}

func TestAndAll(t *testing.T) {
	row := model.Tuple{int64(1)}
	if ok, _ := evalBool(AndAll(nil), row); !ok {
		t.Error("empty AndAll should be TRUE")
	}
	e := AndAll([]Expr{Cmp{EQ, Col(0), Lit{int64(1)}}, Cmp{LT, Col(0), Lit{int64(2)}}})
	if ok, _ := evalBool(e, row); !ok {
		t.Error("conjunction should hold")
	}
}

// joinFixture loads two small tables: L(id, lv), R(id, rv).
func joinFixture(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase()
	l, _ := db.CreateTable(&TableSchema{Name: "L", Columns: []model.Column{intCol("id"), strCol("lv")}})
	r, _ := db.CreateTable(&TableSchema{Name: "R", Columns: []model.Column{intCol("id"), strCol("rv")}})
	l.Insert(model.Tuple{int64(1), "l1"})
	l.Insert(model.Tuple{int64(2), "l2"})
	l.Insert(model.Tuple{nil, "lnull"})
	r.Insert(model.Tuple{int64(2), "r2"})
	r.Insert(model.Tuple{int64(2), "r2b"})
	r.Insert(model.Tuple{int64(3), "r3"})
	r.Insert(model.Tuple{nil, "rnull"})
	return db
}

// collect runs p to completion, keeping every row.
func collect(p Plan, db *Database) ([]model.Tuple, error) {
	var rows []model.Tuple
	err := Each(p, db, func(row model.Tuple) bool {
		rows = append(rows, row)
		return true
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

func runPlan(t *testing.T, db *Database, p Plan) []model.Tuple {
	t.Helper()
	rows, err := collect(p, db)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestHashJoinInner(t *testing.T) {
	db := joinFixture(t)
	j := &HashJoin{
		Left:      &Scan{Table: "L", Width: 2},
		Right:     &Scan{Table: "R", Width: 2},
		LeftKeys:  []int{0},
		RightKeys: []int{0},
	}
	rows := runPlan(t, db, j)
	if len(rows) != 2 {
		t.Fatalf("inner join = %d rows, want 2 (L2 with r2, r2b)", len(rows))
	}
	for _, r := range rows {
		if r[0] != int64(2) || r[2] != int64(2) {
			t.Errorf("bad join row %v", r)
		}
	}
}

func TestHashJoinNullKeysNeverMatch(t *testing.T) {
	db := joinFixture(t)
	j := &HashJoin{
		Left:      &Scan{Table: "L", Width: 2},
		Right:     &Scan{Table: "R", Width: 2},
		LeftKeys:  []int{0},
		RightKeys: []int{0},
	}
	rows := runPlan(t, db, j)
	for _, r := range rows {
		if r[0] == nil {
			t.Errorf("NULL key joined: %v", r)
		}
	}
}

func TestIndexProbePlanAndValues(t *testing.T) {
	db := joinFixture(t)
	db.MustTable("R").CreateIndex([]int{0})
	p := &IndexProbe{Table: "R", Index: IndexOn([]int{0}), Vals: []model.Datum{int64(2)}, Width: 2}
	rows := runPlan(t, db, p)
	if len(rows) != 2 {
		t.Fatalf("probe = %d rows", len(rows))
	}
	v := &Values{Rows: []model.Tuple{{int64(9), "z"}}}
	rows = runPlan(t, db, v)
	if len(rows) != 1 || v.Arity() != 2 {
		t.Fatalf("values wrong: %v arity=%d", rows, v.Arity())
	}
}

func TestScanUnknownTableErrors(t *testing.T) {
	db := NewDatabase()
	if _, err := collect(&Scan{Table: "nope", Width: 1}, db); err == nil {
		t.Error("scan of unknown table should error")
	}
	if _, err := collect(&IndexProbe{Table: "nope"}, db); err == nil {
		t.Error("probe of unknown table should error")
	}
}

func TestExplainRendering(t *testing.T) {
	p := &Filter{Input: &Scan{Table: "L", Width: 2}, Pred: TrueExpr{}}
	out := Explain(p)
	if out == "" {
		t.Error("Explain produced nothing")
	}
}

func TestSortedRowsDeterministic(t *testing.T) {
	db := NewDatabase()
	tbl := newKeyedTable(t, db, "R")
	tbl.Insert(model.Tuple{int64(3), "c"})
	tbl.Insert(model.Tuple{int64(1), "a"})
	tbl.Insert(model.Tuple{int64(2), "b"})
	rows := tbl.SortedRows()
	for i := 1; i < len(rows); i++ {
		if rows[i-1][0].(int64) > rows[i][0].(int64) {
			t.Fatalf("not sorted: %v", rows)
		}
	}
}
