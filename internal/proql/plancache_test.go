package proql

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/model"
	"repro/internal/relstore"
)

// TestPlanCacheHitsOnRepeatedShape runs the same query shape with
// different constants on each backend. The relational backend hits its
// cached template after the first execution; the asr planner (and its
// alias graph) reads only the query syntax and leaves the cache empty.
// Every answer must match its constant.
func TestPlanCacheHitsOnRepeatedShape(t *testing.T) {
	// A_l rows have length 7 and 5 (Figure 1).
	want := map[int]int{5: 2, 6: 1, 7: 1}
	for _, backend := range []string{"relational", "graph", "asr"} {
		e := exampleEngine(t)
		opts := Options{Backend: backend}
		for i, n := range []int{5, 6, 7} {
			q := MustParse(fmt.Sprintf(`FOR [A $x] WHERE $x.length >= %d RETURN $x`, n))
			res, err := e.Exec(context.Background(), q, opts)
			if err != nil {
				t.Fatalf("%s: run %d: %v", backend, i, err)
			}
			if got := len(res.SortedRefs("x")); got != want[n] {
				t.Errorf("%s: length >= %d returned %d rows, want %d", backend, n, got, want[n])
			}
		}
		st := e.PlanCacheStats()
		wantSt := PlanCacheStats{Entries: 1, Hits: 2, Misses: 1}
		if backend != "relational" {
			wantSt = PlanCacheStats{}
		}
		if st != wantSt {
			t.Errorf("%s: stats = %+v, want %+v", backend, st, wantSt)
		}
	}
}

// TestPlanCacheConstantsStillApply guards against the classic plan-
// cache bug: a hit must still evaluate the *current* constants.
func TestPlanCacheConstantsStillApply(t *testing.T) {
	for _, backend := range []string{"relational", "graph", "asr"} {
		e := exampleEngine(t)
		opts := Options{Backend: backend}
		counts := map[int]int{}
		// A_l rows have length 7 and 5 (Figure 1).
		for _, n := range []int{0, 6, 100} {
			res, err := e.Exec(context.Background(), MustParse(fmt.Sprintf(`FOR [A $x] WHERE $x.length >= %d RETURN $x`, n)), opts)
			if err != nil {
				t.Fatalf("%s: length >= %d: %v", backend, n, err)
			}
			counts[n] = len(res.SortedRefs("x"))
		}
		if counts[0] != 2 || counts[6] != 1 || counts[100] != 0 {
			t.Errorf("%s: counts = %v, want {0:2 6:1 100:0}", backend, counts)
		}
	}
}

// TestPlanCacheMissOnDifferentBindingPattern changes a literal operand
// into a variable access: same operator, different binding pattern,
// must not share an entry.
func TestPlanCacheMissOnDifferentBindingPattern(t *testing.T) {
	e := exampleEngine(t)
	opts := Options{Backend: "relational"}
	if _, err := e.Exec(context.Background(), MustParse(`FOR [A $x] WHERE $x.length >= 6 RETURN $x`), opts); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Exec(context.Background(), MustParse(`FOR [A $x] WHERE $x.length >= $x.id RETURN $x`), opts); err != nil {
		t.Fatal(err)
	}
	st := e.PlanCacheStats()
	if st.Hits != 0 || st.Misses != 2 {
		t.Errorf("stats = %+v, want 0 hits / 2 misses (distinct binding patterns)", st)
	}
}

// TestPlanCacheInvalidationOnDefinitionChange bumps the store's
// definition version (as Materialize's DropTable+CreateTable does) and
// expects the next execution to re-plan; row churn alone must not
// invalidate.
func TestPlanCacheInvalidationOnDefinitionChange(t *testing.T) {
	e := exampleEngine(t)
	opts := Options{Backend: "relational"}
	q := `FOR [A $x] WHERE $x.length >= 6 RETURN $x`
	for i := 0; i < 2; i++ {
		if _, err := e.Exec(context.Background(), MustParse(q), opts); err != nil {
			t.Fatal(err)
		}
	}
	if st := e.PlanCacheStats(); st.Hits != 1 {
		t.Fatalf("warmup stats = %+v, want 1 hit", st)
	}
	// Row churn: entries stay valid.
	if _, err := e.Sys.DB.MustTable("A_l").Insert(model.Tuple{int64(99), "x", int64(1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Exec(context.Background(), MustParse(q), opts); err != nil {
		t.Fatal(err)
	}
	if st := e.PlanCacheStats(); st.Hits != 2 {
		t.Fatalf("after row churn stats = %+v, want 2 hits", st)
	}
	// Definition change: a new table bumps the version and invalidates.
	if _, err := e.Sys.DB.CreateTable(&relstore.TableSchema{
		Name:    "ASR_test",
		Columns: []model.Column{{Name: "k", Type: model.TypeInt}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Exec(context.Background(), MustParse(q), opts); err != nil {
		t.Fatal(err)
	}
	st := e.PlanCacheStats()
	if st.Hits != 2 {
		t.Errorf("definition change should force a miss: stats = %+v", st)
	}
	if st.Misses < 2 {
		t.Errorf("expected a second miss after invalidation: stats = %+v", st)
	}
}

// TestPlanCacheBounded mints 10,000 shapes the way a client renaming
// its variables would, interleaved with one recurring shape: the cache
// never holds more than maxPlanCacheEntries entries, every answer
// matches its literal, and the recurring shape still hits whenever its
// entry survived.
func TestPlanCacheBounded(t *testing.T) {
	e := exampleEngine(t)
	opts := Options{Backend: "relational"}
	want := map[int]int{0: 2, 6: 1, 100: 0} // A_l rows have length 7 and 5 (Figure 1)
	lengths := []int{0, 6, 100}
	run := func(v string, i int) {
		t.Helper()
		n := lengths[i%len(lengths)]
		q := MustParse(fmt.Sprintf(`FOR [A $%s] WHERE $%s.length >= %d RETURN $%s`, v, v, n, v))
		res, err := e.Exec(context.Background(), q, opts)
		if err != nil {
			t.Fatalf("$%s, length >= %d: %v", v, n, err)
		}
		if got := len(res.SortedRefs(v)); got != want[n] {
			t.Fatalf("$%s, length >= %d: %d bindings, want %d", v, n, got, want[n])
		}
	}
	for i := 0; i < 10_000; i++ {
		run(fmt.Sprintf("x%d", i), i)
		if i%10 == 0 {
			run("x", i)
		}
		if st := e.PlanCacheStats(); st.Entries > maxPlanCacheEntries {
			t.Fatalf("after %d shapes: %d entries, cap %d", i+1, st.Entries, maxPlanCacheEntries)
		}
	}
	st := e.PlanCacheStats()
	if st.Entries != maxPlanCacheEntries || st.Hits == 0 {
		t.Errorf("stats %+v: want a full cache and some hits of the recurring shape", st)
	}
}
