package proql

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// TestPlanCacheConcurrentSameShape hammers one engine with the same
// query shape (varying constants) from many goroutines across all
// three backend names. Under -race this exercises the plan cache's
// mutex and the per-query path views' shared buffer list. Afterwards the relational
// stats must balance: every execution was either a hit or a miss, and
// the shape interned exactly one entry. The path planner (and its alias
// graph) never touches the cache, so there it stays empty.
func TestPlanCacheConcurrentSameShape(t *testing.T) {
	for _, backend := range []string{"relational", "path"} {
		e := exampleEngine(t)
		opts := Options{Backend: backend}

		const goroutines = 8
		const iters = 25
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(seed int) {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					n := (seed + i) % 9
					q := MustParse(fmt.Sprintf(`FOR [A $x] WHERE $x.length >= %d RETURN $x`, n))
					res, err := e.Exec(context.Background(), q, opts)
					if err != nil {
						t.Errorf("%s: goroutine %d: %v", backend, seed, err)
						return
					}
					// A_l rows have length 7 and 5 (Figure 1): the hit
					// path must still apply the current constant.
					want := 2
					if n > 5 {
						want = 1
					}
					if n > 7 {
						want = 0
					}
					if got := len(res.SortedRefs("x")); got != want {
						t.Errorf("%s: length >= %d returned %d rows, want %d", backend, n, got, want)
						return
					}
				}
			}(g)
		}
		wg.Wait()

		st := e.PlanCacheStats()
		if backend != "relational" {
			if st != (PlanCacheStats{}) {
				t.Errorf("%s: stats = %+v, want an untouched cache", backend, st)
			}
			continue
		}
		if st.Hits+st.Misses != goroutines*iters {
			t.Errorf("%s: hits(%d)+misses(%d) != %d executions", backend, st.Hits, st.Misses, goroutines*iters)
		}
		// Concurrent first executions may each miss and store, but the
		// map must converge to one entry for the single shape.
		if st.Entries != 1 {
			t.Errorf("%s: entries = %d, want 1", backend, st.Entries)
		}
		if st.Hits == 0 {
			t.Errorf("%s: no cache hits across %d executions", backend, goroutines*iters)
		}
	}
}
