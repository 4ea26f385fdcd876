package workload

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/proql"
)

// ServeRow is one point of the concurrent-serving experiment (E15):
// one ProQL backend serving N reader goroutines while a churn writer
// commits interleaved insert/delete exchanges. Latencies are per-query
// read latencies under churn; SoloP50 is the same query measured
// serially on the quiescent system, the reference the bench gate
// normalizes P99 against. Errors counts failed reads — the snapshot
// layer makes the expected value zero.
type ServeRow struct {
	Backend string
	Readers int
	Queries int
	Errors  int
	P50     time.Duration
	P99     time.Duration
	Max     time.Duration
	SoloP50 time.Duration
	// Commits is how many exchange commits (Run or DeleteLocal) the
	// churn writer published during the measured read window.
	Commits      int
	Elapsed      time.Duration
	InstanceSize int
}

// serveQuery picks each backend's natural workload: the relational
// backend gets the Section 6.1.2 target query it can unfold; the asr
// backend and its graph alias get the Q4-shaped multi-path query their
// physical pipeline exists for.
func serveQuery(set *Setting, backend string) (*proql.Query, error) {
	if backend == "relational" {
		return proql.Parse(set.TargetQuery())
	}
	return proql.Parse(fmt.Sprintf(
		"FOR [%s $x] <-+ [$z], [%s $y] <-+ [$z] RETURN $x, $y",
		ARel(0), ARel(1)))
}

func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

// RunServe measures snapshot-isolated concurrent serving: for every
// reader count and every backend, N goroutines each run the backend's
// query queriesPerReader times against a chain setting while one
// writer goroutine alternates committing a fresh batch of base tuples
// (InsertLocal+Run) and deleting it again (DeleteLocal) — the
// RunDelta/DeleteLocal churn loop. The facade's epoch layer means
// readers never block on the writer and never observe a half-applied
// commit; this harness quantifies what that costs in read latency.
func RunServe(readerCounts []int, numPeers, dataPeers, baseSize, batch, queriesPerReader int, seed int64) ([]ServeRow, error) {
	var out []ServeRow
	for _, readers := range readerCounts {
		for _, backend := range []string{"relational", "graph", "asr"} {
			row, err := serveOne(backend, readers, numPeers, dataPeers, baseSize, batch, queriesPerReader, seed)
			if err != nil {
				return nil, fmt.Errorf("serve %s/%d readers: %w", backend, readers, err)
			}
			out = append(out, row)
		}
	}
	return out, nil
}

func serveOne(backend string, readers, numPeers, dataPeers, baseSize, batch, queriesPerReader int, seed int64) (ServeRow, error) {
	cfg := Config{
		Topology:   Chain,
		Profile:    ProfileLinear,
		NumPeers:   numPeers,
		DataPeers:  UpstreamDataPeers(numPeers, dataPeers),
		BaseSize:   baseSize,
		Categories: 16,
		Seed:       seed,
	}
	set, err := Build(cfg)
	if err != nil {
		return ServeRow{}, err
	}
	sys := core.Wrap(set.Sys)
	eng := sys.Engine()
	q, err := serveQuery(set, backend)
	if err != nil {
		return ServeRow{}, err
	}
	execOnce := func() (time.Duration, error) {
		start := time.Now()
		_, execErr := eng.Exec(context.Background(), q, proql.Options{Backend: backend})
		return time.Since(start), execErr
	}

	row := ServeRow{Backend: backend, Readers: readers, InstanceSize: set.InstanceSize()}

	// Solo reference: the same query, serialized, quiescent system.
	solo := make([]time.Duration, 0, Runs)
	for i := 0; i < Runs; i++ {
		d, err := execOnce()
		if err != nil {
			return ServeRow{}, err
		}
		solo = append(solo, d)
	}
	sort.Slice(solo, func(i, j int) bool { return solo[i] < solo[j] })
	row.SoloP50 = percentile(solo, 0.50)

	// Churn writer: alternate commit a fresh batch / delete it again,
	// so the instance toggles between two states without growing.
	stop := make(chan struct{})
	var writerErr error
	var commits atomic.Int64
	var wwg sync.WaitGroup
	wwg.Add(1)
	go func() {
		defer wwg.Done()
		src := numPeers - 1
		var gen int64
		var pending [][]model.Datum
		for {
			select {
			case <-stop:
				return
			default:
			}
			if pending == nil {
				rows := make([]model.Tuple, batch)
				keys := make([][]model.Datum, batch)
				for j := range rows {
					k := int64(src)*10_000_000 + int64(baseSize) + gen
					gen++
					r := model.Tuple{k, k % int64(cfg.Categories)}
					for a := 0; a < 10; a++ {
						r = append(r, k+int64(a))
					}
					rows[j] = r
					keys[j] = []model.Datum{k}
				}
				if err := sys.InsertLocal(ARel(src), rows...); err != nil {
					writerErr = err
					return
				}
				if err := sys.Run(); err != nil {
					writerErr = err
					return
				}
				pending = keys
			} else {
				if _, err := sys.DeleteLocal(ARel(src), pending...); err != nil {
					writerErr = err
					return
				}
				pending = nil
			}
			commits.Add(1)
		}
	}()

	// Measured read window.
	lats := make([][]time.Duration, readers)
	var errCount atomic.Int64
	start := time.Now()
	var rwg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func(r int) {
			defer rwg.Done()
			ls := make([]time.Duration, 0, queriesPerReader)
			for i := 0; i < queriesPerReader; i++ {
				d, err := execOnce()
				if err != nil {
					errCount.Add(1)
					continue
				}
				ls = append(ls, d)
			}
			lats[r] = ls
		}(r)
	}
	rwg.Wait()
	row.Elapsed = time.Since(start)
	close(stop)
	wwg.Wait()
	if writerErr != nil {
		return ServeRow{}, writerErr
	}

	var all []time.Duration
	for _, ls := range lats {
		all = append(all, ls...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	row.Queries = len(all)
	row.Errors = int(errCount.Load())
	row.Commits = int(commits.Load())
	row.P50 = percentile(all, 0.50)
	row.P99 = percentile(all, 0.99)
	row.Max = percentile(all, 1.00)
	return row, nil
}
