package relstore

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/model"
)

// accessFixture loads E(id, dept, city, name) keyed on id with an index
// on (dept) and one on (dept, city), and a keyless log table G(dept, n).
func accessFixture(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase()
	e, err := db.CreateTable(&TableSchema{
		Name:    "E",
		Columns: []model.Column{intCol("id"), intCol("dept"), strCol("city"), strCol("name")},
		Key:     []int{0},
	})
	if err != nil {
		t.Fatal(err)
	}
	e.CreateIndex([]int{1})
	e.CreateIndex([]int{1, 2})
	cities := []string{"ams", "ber", "cph"}
	for i := 0; i < 12; i++ {
		e.Insert(model.Tuple{int64(i), int64(i % 4), cities[i%3], fmt.Sprintf("e%d", i)})
	}
	g, err := db.CreateTable(&TableSchema{Name: "G", Columns: []model.Column{intCol("dept"), intCol("n")}})
	if err != nil {
		t.Fatal(err)
	}
	g.Insert(model.Tuple{int64(1), int64(10)})
	g.Insert(model.Tuple{int64(1), int64(11)})
	g.Insert(model.Tuple{nil, int64(12)})
	g.Insert(model.Tuple{int64(3), int64(3)})
	g.Insert(model.Tuple{int64(9), int64(9)})
	return db
}

func sortedRows(rows []model.Tuple) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.Format()
	}
	sort.Strings(out)
	return out
}

func TestChooseAccess(t *testing.T) {
	db := accessFixture(t)
	e := db.MustTable("E")
	for _, tc := range []struct {
		bound []int
		want  AccessPath
	}{
		// The key wins over any index, and probes in key order.
		{[]int{1, 0}, AccessPath{Kind: AccessPK, Probe: []int{1}, Residual: []int{0}}},
		{[]int{0}, AccessPath{Kind: AccessPK, Probe: []int{0}}},
		// The widest covered index, probed in index column order.
		{[]int{2, 1}, AccessPath{Kind: AccessIndex, Probe: []int{1, 0}}},
		{[]int{3, 2, 1}, AccessPath{Kind: AccessIndex, Probe: []int{2, 1}, Residual: []int{0}}},
		{[]int{1, 3}, AccessPath{Kind: AccessIndex, Probe: []int{0}, Residual: []int{1}}},
		// No key or index covered: scan, everything residual.
		{[]int{2, 3}, AccessPath{Kind: AccessScan, Residual: []int{0, 1}}},
		{nil, AccessPath{Kind: AccessScan}},
	} {
		if got := e.ChooseAccess(tc.bound); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ChooseAccess(%v) = %+v, want %+v", tc.bound, got, tc.want)
		}
	}
	// A keyless table with no index only scans.
	if got := db.MustTable("G").ChooseAccess([]int{0}); got.Kind != AccessScan {
		t.Errorf("keyless ChooseAccess = %+v", got)
	}
	// Snapshot views share the writer's indexes.
	snap := db.Snapshot()
	defer snap.Close()
	if got := snap.MustTable("E").ChooseAccess([]int{1}); got.Kind != AccessIndex {
		t.Errorf("snapshot ChooseAccess = %+v", got)
	}
}

func TestSelectPlans(t *testing.T) {
	db := accessFixture(t)
	e := db.MustTable("E")
	for _, tc := range []struct {
		cols    []int
		vals    []model.Datum
		explain string
		want    int
	}{
		{nil, nil, "Scan(E)\n", 12},
		{[]int{0}, []model.Datum{int64(5)}, "PKLookup(E)\n", 1},
		{[]int{0}, []model.Datum{int64(99)}, "PKLookup(E)\n", 0},
		{[]int{0, 1}, []model.Datum{int64(5), int64(1)}, "Filter(($1 = 1))\n  PKLookup(E)\n", 1},
		{[]int{0, 1}, []model.Datum{int64(5), int64(2)}, "Filter(($1 = 2))\n  PKLookup(E)\n", 0},
		{[]int{1}, []model.Datum{int64(1)}, "IndexProbe(E cols=[1])\n", 3},
		{[]int{2, 1}, []model.Datum{"ber", int64(1)}, "IndexProbe(E cols=[1 2])\n", 1},
		{[]int{1, 3}, []model.Datum{int64(1), "e9"}, "Filter(($3 = e9))\n  IndexProbe(E cols=[1])\n", 1},
		{[]int{2, 3}, []model.Datum{"ams", "e3"}, "Filter((($2 = ams) AND ($3 = e3)))\n  Scan(E)\n", 1},
	} {
		p := Select(e, tc.cols, tc.vals)
		if got := Explain(p); got != tc.explain {
			t.Errorf("Select(%v) explains as\n%swant\n%s", tc.cols, got, tc.explain)
		}
		if rows := runPlan(t, db, p); len(rows) != tc.want {
			t.Errorf("Select(%v = %v) = %d rows, want %d", tc.cols, tc.vals, len(rows), tc.want)
		}
	}
}

// indexJoin builds an IndexJoin of left into table, binding cols to
// keys, with the access path the table chooses.
func indexJoin(t *testing.T, db *Database, left Plan, table string, cols []int, keys []Expr) *IndexJoin {
	t.Helper()
	tbl := db.MustTable(table)
	path := tbl.ChooseAccess(cols)
	if path.Kind == AccessScan {
		t.Fatalf("no key or index of %s covers %v", table, cols)
	}
	return &IndexJoin{Left: left, Table: table, Width: len(tbl.Schema.Columns), Cols: cols, Keys: keys, Path: path}
}

// checkIndexJoin demands that the join and an equivalent HashJoin over
// a scan (filtered by the constant keys) agree.
func checkIndexJoin(t *testing.T, db *Database, j *IndexJoin, want int) []model.Tuple {
	t.Helper()
	rows := runPlan(t, db, j)
	if len(rows) != want {
		t.Errorf("%s= %d rows, want %d: %v", Explain(j), len(rows), want, rows)
	}
	var right Plan = &Scan{Table: j.Table, Width: j.Width}
	var lk, rk []int
	for i, k := range j.Keys {
		switch k := k.(type) {
		case Col:
			lk, rk = append(lk, int(k)), append(rk, j.Cols[i])
		case Lit:
			right = &Filter{Input: right, Pred: Cmp{Op: EQ, L: Col(j.Cols[i]), R: k}}
		}
	}
	oracle := runPlan(t, db, &HashJoin{Left: j.Left, Right: right, LeftKeys: lk, RightKeys: rk})
	if !reflect.DeepEqual(sortedRows(oracle), sortedRows(rows)) {
		t.Errorf("%sindex join = %v\nhash join  = %v", Explain(j), sortedRows(rows), sortedRows(oracle))
	}
	return rows
}

func TestIndexJoinAccessPaths(t *testing.T) {
	db := accessFixture(t)
	g := &Scan{Table: "G", Width: 2}

	// Via the primary key: G.n = E.id. The NULL-dept row still joins
	// on n; G rows 10, 11 and 3, 9 find ids 10, 11, 3, 9; 12 misses.
	j := indexJoin(t, db, g, "E", []int{0}, []Expr{Col(1)})
	rows := checkIndexJoin(t, db, j, 4)
	for _, r := range rows {
		if len(r) != 6 || r[1] != r[2] {
			t.Errorf("bad pk join row %v", r)
		}
	}
	if got := Explain(j); got != "IndexJoin(E via pk cols=[0] keys=[$1])\n  Scan(G)\n" {
		t.Errorf("explain:\n%s", got)
	}

	// Via a secondary index: G.dept = E.dept (3 employees per dept;
	// dept 9 has none, NULL never matches).
	j = indexJoin(t, db, g, "E", []int{1}, []Expr{Col(0)})
	checkIndexJoin(t, db, j, 3+3+3)
	if got := Explain(j); got != "IndexJoin(E via index cols=[1] keys=[$0])\n  Scan(G)\n" {
		t.Errorf("explain:\n%s", got)
	}

	// Index plus a residual constant: dept = G.dept AND name = 'e9'.
	j = indexJoin(t, db, g, "E", []int{1, 3}, []Expr{Col(0), Lit{Val: "e9"}})
	checkIndexJoin(t, db, j, 2)
	if got := Explain(j); got != "IndexJoin(E via index cols=[1] keys=[$0] residual cols=[3] keys=[e9])\n  Scan(G)\n" {
		t.Errorf("explain:\n%s", got)
	}

	// The wider index with a constant in the probe key.
	j = indexJoin(t, db, g, "E", []int{2, 1}, []Expr{Lit{Val: "ber"}, Col(0)})
	checkIndexJoin(t, db, j, 2+1)
	if !strings.Contains(Explain(j), "via index cols=[1 2] keys=[$0, ber]") {
		t.Errorf("explain:\n%s", Explain(j))
	}

	// Primary key plus residual join column: id = G.n AND dept = G.dept.
	j = indexJoin(t, db, g, "E", []int{0, 1}, []Expr{Col(1), Col(0)})
	checkIndexJoin(t, db, j, 1) // only (3, 3): ids 10, 11 and 9 sit in other departments
}

// TestSemiJoin: a semi-join through the primary key returns the full
// join's rows cut back to the left columns, duplicate left rows
// included, and they are the left rows themselves. Through an index
// (more than one match) it is refused.
func TestSemiJoin(t *testing.T) {
	db := accessFixture(t)
	left := &Values{Rows: []model.Tuple{{int64(3), "a"}, {int64(3), "b"}, {int64(3), "a"}, {int64(99), "c"}, {nil, "d"}, {int64(7), "e"}}}
	for _, cols := range [][]int{{0}, {0, 1}} {
		keys := []Expr{Col(0), Lit{Val: int64(3)}}[:len(cols)]
		full := indexJoin(t, db, left, "E", cols, keys)
		semi := *full
		semi.Semi = true
		want := runPlan(t, db, ProjectCols(full, 0, 1))
		got := runPlan(t, db, &semi)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("semi-join on %v = %v, want %v", cols, got, want)
		}
		for _, row := range got {
			if !slices.ContainsFunc(left.Rows, func(l model.Tuple) bool { return &l[0] == &row[0] }) {
				t.Errorf("semi-join row %v is a copy, not the left row", row)
			}
		}
		if semi.Arity() != 2 {
			t.Errorf("semi-join arity %d, want 2", semi.Arity())
		}
	}
	if got := Explain(&IndexJoin{Left: left, Table: "E", Width: 4, Cols: []int{0}, Keys: []Expr{Col(0)},
		Path: AccessPath{Kind: AccessPK, Probe: []int{0}}, Semi: true}); got != "SemiJoin(E via pk cols=[0] keys=[$0])\n  Values(6 rows)\n" {
		t.Errorf("explain:\n%s", got)
	}
	byIndex := indexJoin(t, db, left, "E", []int{1}, []Expr{Col(0)})
	byIndex.Semi = true
	if _, err := collect(byIndex, db); err == nil {
		t.Error("a semi-join through a secondary index should error")
	}
}

func TestIndexJoinRepeatedVariable(t *testing.T) {
	// An atom E(x, x, _, _) joined on x binds one left column to two
	// right columns: id = G.n AND dept = G.n.
	db := accessFixture(t)
	j := indexJoin(t, db, &Scan{Table: "G", Width: 2}, "E", []int{0, 1}, []Expr{Col(1), Col(1)})
	rows := checkIndexJoin(t, db, j, 1)
	if len(rows) == 1 && (rows[0][2] != int64(3) || rows[0][3] != int64(3)) {
		t.Errorf("repeated-variable join row %v", rows[0])
	}
}

func TestIndexJoinNullKeysNeverMatch(t *testing.T) {
	db := accessFixture(t)
	// A stored NULL must not be found by a NULL key either.
	db.MustTable("E").Insert(model.Tuple{int64(50), nil, "ams", "nodept"})
	left := &Values{Rows: []model.Tuple{{nil, int64(12)}, {int64(1), nil}}}
	// Only (1, NULL) joins, and only where its NULL is not a key.
	checkIndexJoin(t, db, indexJoin(t, db, left, "E", []int{1}, []Expr{Col(0)}), 3)
	checkIndexJoin(t, db, indexJoin(t, db, left, "E", []int{0, 1}, []Expr{Col(1), Col(0)}), 0)
	checkIndexJoin(t, db, indexJoin(t, db, left, "E", []int{1, 3}, []Expr{Col(0), Col(1)}), 0)
	j := indexJoin(t, db, &Values{Rows: []model.Tuple{{nil, int64(12)}}}, "E", []int{1}, []Expr{Col(0)})
	if rows := runPlan(t, db, j); len(rows) != 0 {
		t.Errorf("NULL probe key matched %v", rows)
	}
}

func TestIndexJoinOpensRightTableLazily(t *testing.T) {
	db := accessFixture(t)
	missing := func(left Plan) *IndexJoin {
		return &IndexJoin{Left: left, Table: "nope", Width: 2, Cols: []int{0}, Keys: []Expr{Col(0)},
			Path: AccessPath{Kind: AccessPK, Probe: []int{0}}}
	}
	// An empty left input never opens the right table.
	empty := &Filter{Input: &Scan{Table: "G", Width: 2}, Pred: Cmp{Op: EQ, L: Col(0), R: Lit{Val: int64(-1)}}}
	if rows, err := collect(missing(empty), db); err != nil || len(rows) != 0 {
		t.Errorf("empty left: rows=%v err=%v", rows, err)
	}
	// The first left row does.
	if _, err := collect(missing(&Scan{Table: "G", Width: 2}), db); err == nil {
		t.Error("index join into an unknown table should error")
	}
	// A path with nothing to probe is a planning bug, reported as such.
	bad := &IndexJoin{Left: &Scan{Table: "G", Width: 2}, Table: "E", Width: 4, Cols: []int{3}, Keys: []Expr{Col(0)},
		Path: db.MustTable("E").ChooseAccess([]int{3})}
	if _, err := collect(bad, db); err == nil {
		t.Error("index join over a scan path should error")
	}
}

// countingExpr is a predicate that holds for every row, counting the
// rows it sees.
type countingExpr struct{ n *int }

func (c countingExpr) Eval(model.Tuple) (model.Datum, error) { *c.n++; return true, nil }

func (c countingExpr) String() string { return "count" }

// countingPlan counts the rows pulled from its input.
func countingPlan(in Plan, pulled *int) Plan {
	return &Filter{Input: in, Pred: countingExpr{pulled}}
}

func TestIndexJoinStreamsPerOutputRow(t *testing.T) {
	// The join is not a pipeline breaker: each output row costs at most
	// one more left row, so a consumer that polls for cancellation
	// between rows (proql's Query.Cancel) is never stuck behind a
	// materialized input, and one that stops reads no further row.
	db := accessFixture(t)
	pulled := 0
	j := indexJoin(t, db, countingPlan(&Scan{Table: "E", Width: 4}, &pulled), "E", []int{1}, []Expr{Col(1)})
	n := 0
	if err := Each(j, db, func(model.Tuple) bool {
		n++
		// Every left row has three partners in its department.
		if want := (n + 2) / 3; pulled != want {
			t.Errorf("after %d output rows the join pulled %d left rows, want %d", n, pulled, want)
		}
		return n < 7
	}); err != nil {
		t.Fatal(err)
	}
	if n != 7 || pulled != 3 {
		t.Errorf("a run stopped after row 7 yielded %d rows and pulled %d left rows, want 7 and 3", n, pulled)
	}
}

func TestIndexJoinOnSnapshots(t *testing.T) {
	// Indexes keep dead-but-retained versions; the join must see
	// exactly the pinned epoch through both access paths.
	db := accessFixture(t)
	db.SetRetention(RetainAll)
	e := db.MustTable("E")
	before := db.Epoch()
	for _, id := range []int64{1, 5, 9} { // all of dept 1
		if ok, err := e.Delete([]model.Datum{id}); err != nil || !ok {
			t.Fatalf("delete %d: %v %v", id, ok, err)
		}
	}
	e.Insert(model.Tuple{int64(5), int64(3), "ber", "e5-moved"})
	g := &Scan{Table: "G", Width: 2}
	old, err := db.SnapshotAt(before)
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	now := db.Snapshot()
	defer now.Close()
	byIndex := indexJoin(t, db, g, "E", []int{1}, []Expr{Col(0)})
	byKey := indexJoin(t, db, &Values{Rows: []model.Tuple{{int64(5)}}}, "E", []int{0}, []Expr{Col(0)})
	checkIndexJoin(t, old, byIndex, 9)
	checkIndexJoin(t, now, byIndex, 0+0+4) // dept 1 emptied, dept 3 gained id 5
	if rows := checkIndexJoin(t, old, byKey, 1); len(rows) == 1 && rows[0][4] != "e5" {
		t.Errorf("as of %d id 5 is %v", before, rows[0])
	}
	if rows := checkIndexJoin(t, now, byKey, 1); len(rows) == 1 && rows[0][4] != "e5-moved" {
		t.Errorf("live id 5 is %v", rows[0])
	}
}
