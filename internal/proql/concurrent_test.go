package proql

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// TestPlanCacheConcurrentSameShape hammers one engine with the same
// query shape (varying constants) from many goroutines on both
// executors; every answer must match its constant. Under -race this
// exercises what concurrent queries share: the path views' spare list
// and dense tables, the include walks' pool, and the snapshots' table
// handles. (The name is kept from the plan cache it once checked.)
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
	}
}

// TestPlanCacheConstantsStillApply runs one query shape with three
// constants on both executors: each answer must be its own constant's.
// (The name is kept from the plan cache it once checked.)
func TestPlanCacheConstantsStillApply(t *testing.T) {
	for _, backend := range []string{"relational", "path"} {
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
