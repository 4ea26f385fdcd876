package relstore

import (
	"errors"
	"testing"
	"time"

	"repro/internal/model"
)

// TestEachStopsEarly: a run whose yield returns false ends without an
// error and reads no further row of its input, through every operator.
func TestEachStopsEarly(t *testing.T) {
	db := accessFixture(t)
	e := db.MustTable("E")
	for name, tc := range map[string]struct {
		src  Plan
		over func(Plan) Plan
	}{
		"scan":        {&Scan{Table: "E", Width: 4}, func(p Plan) Plan { return p }},
		"pk lookup":   {Select(e, []int{0}, []model.Datum{int64(5)}), func(p Plan) Plan { return p }},
		"index probe": {Select(e, []int{1}, []model.Datum{int64(1)}), func(p Plan) Plan { return p }},
		"values":      {&Values{Rows: []model.Tuple{{int64(1)}, {int64(2)}}}, func(p Plan) Plan { return p }},
		"filter":      {&Scan{Table: "E", Width: 4}, func(p Plan) Plan { return &Filter{Input: p, Pred: TrueExpr{}} }},
		"project":     {&Scan{Table: "E", Width: 4}, func(p Plan) Plan { return ProjectCols(p, 3, 0) }},
		"index join": {&Scan{Table: "E", Width: 4}, func(p Plan) Plan {
			return indexJoin(t, db, p, "E", []int{1}, []Expr{Col(1)})
		}},
		"semi-join": {&Scan{Table: "E", Width: 4}, func(p Plan) Plan {
			j := indexJoin(t, db, p, "E", []int{0}, []Expr{Col(0)})
			j.Semi = true
			return j
		}},
		"hash join probe side": {&Scan{Table: "E", Width: 4}, func(p Plan) Plan {
			return &HashJoin{Left: p, Right: &Scan{Table: "E", Width: 4}, LeftKeys: []int{0}, RightKeys: []int{0}}
		}},
	} {
		pulled, yielded := 0, 0
		p := tc.over(countingPlan(tc.src, &pulled))
		if err := Each(p, db, func(model.Tuple) bool {
			yielded++
			return false
		}); err != nil {
			t.Errorf("%s: stopped run failed: %v", name, err)
		}
		if yielded != 1 || pulled != 1 {
			t.Errorf("%s: stopped at the first row, the run yielded %d rows and read %d; want 1 and 1", name, yielded, pulled)
		}
	}
}

var errBoom = errors.New("boom")

// failAfter evaluates E for its first n rows and fails on the next.
type failAfter struct {
	E    Expr
	n    int
	seen *int
}

func (f failAfter) Eval(row model.Tuple) (model.Datum, error) {
	if *f.seen++; *f.seen > f.n {
		return nil, errBoom
	}
	return f.E.Eval(row)
}

func (f failAfter) String() string { return "fail" }

// TestEachReturnsMidRunError: an error in the middle of a run ends it,
// after the rows yielded before it, and comes back from Each.
func TestEachReturnsMidRunError(t *testing.T) {
	db := accessFixture(t)
	scan := &Scan{Table: "E", Width: 4}
	pk := AccessPath{Kind: AccessPK, Probe: []int{0}}
	for name, tc := range map[string]struct {
		plan func(seen *int) Plan
		want int
	}{
		"filter": {func(seen *int) Plan {
			return &Filter{Input: scan, Pred: failAfter{TrueExpr{}, 2, seen}}
		}, 2},
		"project": {func(seen *int) Plan {
			return &Project{Input: scan, Exprs: []Expr{failAfter{Col(0), 2, seen}}}
		}, 2},
		"index join key": {func(seen *int) Plan {
			return &IndexJoin{Left: scan, Table: "E", Width: 4, Cols: []int{0}, Keys: []Expr{failAfter{Col(0), 2, seen}}, Path: pk}
		}, 2},
		"index join input": {func(seen *int) Plan {
			return &IndexJoin{Left: &Filter{Input: scan, Pred: failAfter{TrueExpr{}, 2, seen}}, Table: "E", Width: 4,
				Cols: []int{0}, Keys: []Expr{Col(0)}, Path: pk}
		}, 2},
		"hash join build side": {func(seen *int) Plan {
			return &HashJoin{Left: scan, Right: &Filter{Input: scan, Pred: failAfter{TrueExpr{}, 2, seen}},
				LeftKeys: []int{0}, RightKeys: []int{0}}
		}, 0},
		"hash join probe side": {func(seen *int) Plan {
			return &HashJoin{Left: &Filter{Input: scan, Pred: failAfter{TrueExpr{}, 2, seen}}, Right: scan,
				LeftKeys: []int{0}, RightKeys: []int{0}}
		}, 2},
	} {
		seen, yielded := 0, 0
		err := Each(tc.plan(&seen), db, func(model.Tuple) bool {
			yielded++
			return true
		})
		if !errors.Is(err, errBoom) || yielded != tc.want {
			t.Errorf("%s: run yielded %d rows and ended with %v; want %d and %v", name, yielded, err, tc.want, errBoom)
		}
	}
}

// TestEachYieldProbesScannedTableWhileWriterWaits: a run holds no table
// latch while it yields, so a callback may probe the very table being
// scanned — a provenance self-join — while a writer waits on that
// table. Were the scan's read latch held across the callback, the
// waiting writer would block the callback's probe and the run would
// never end.
func TestEachYieldProbesScannedTableWhileWriterWaits(t *testing.T) {
	db := accessFixture(t)
	e := db.MustTable("E")
	join := indexJoin(t, db, &Scan{Table: "E", Width: 4}, "E", []int{0}, []Expr{Col(0)})
	done := make(chan error, 1)
	go func() {
		wrote := make(chan struct{})
		first := true
		err := Each(join, db, func(row model.Tuple) bool {
			if first {
				first = false
				go func() {
					e.Insert(model.Tuple{int64(100), int64(9), "osl", "writer"})
					close(wrote)
				}()
				time.Sleep(20 * time.Millisecond) // the writer reaches the latch
			}
			if _, ok := e.LookupKey([]model.Datum{row[0]}); !ok {
				t.Errorf("self-probe of %v found nothing", row[0])
			}
			return true
		})
		<-wrote
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a run probing its scanned table deadlocked behind a waiting writer")
	}
}
