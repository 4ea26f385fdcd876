// Package repro_test holds the benchmark harness: one testing.B per
// table and figure of the paper's evaluation (Section 6). The sizes
// here are benchmark-friendly; cmd/proqlbench runs the full sweeps
// (and -scale=paper the paper-scale parameters) and prints the series
// the paper plots. EXPERIMENTS.md records paper-vs-measured.
package repro_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/asr"
	"repro/internal/core"
	"repro/internal/exchange"
	"repro/internal/fixture"
	"repro/internal/model"
	"repro/internal/proql"
	"repro/internal/wal"
	"repro/internal/workload"
)

// relational pins the paper's translation (Section 4), which auto
// leaves for whole-relation reads.
var relational = proql.Options{Backend: "relational"}

// BenchmarkTable1Semirings times experiment E1: one whole EVALUATE
// query per Table 1 semiring over the Figure 1 setting, on the default
// backend (auto, which runs it on path).
func BenchmarkTable1Semirings(b *testing.B) {
	eng := proql.NewEngine(fixture.MustSystem(fixture.Options{}))
	for _, name := range workload.Table1Semirings {
		q := proql.MustParse(workload.Table1Query(name))
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eng.Eval(context.Background(), q, proql.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchTargetQuery(b *testing.B, cfg workload.Config) {
	b.Helper()
	set, err := workload.Build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	eng := proql.NewEngine(set.Sys)
	q, err := proql.Parse(set.TargetQuery())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Exec(context.Background(), q, relational); err != nil {
			b.Fatal(err)
		}
	}
}

// fig7Config is the Fig. 7 setting at one number of peers.
func fig7Config(peers int) workload.Config {
	return workload.Config{
		Topology:  workload.Chain,
		Profile:   workload.ProfileFan,
		NumPeers:  peers,
		DataPeers: workload.AllDataPeers(peers),
		BaseSize:  20,
		Seed:      42,
	}
}

// BenchmarkFig7ChainAllPeersData is experiment E2: chain topology with
// data at every peer; unfolded rules and times grow exponentially with
// the number of peers. The auto-cold arms answer the same query the
// way auto does, on the path executor, with a fresh engine (no
// cached plan) per query.
func BenchmarkFig7ChainAllPeersData(b *testing.B) {
	for _, peers := range []int{2, 3, 4, 5, 6} {
		b.Run(fmt.Sprintf("peers=%d", peers), func(b *testing.B) {
			benchTargetQuery(b, fig7Config(peers))
		})
	}
	for _, peers := range []int{5, 6, 7} {
		b.Run(fmt.Sprintf("auto-cold/peers=%d", peers), func(b *testing.B) {
			set, err := workload.Build(fig7Config(peers))
			if err != nil {
				b.Fatal(err)
			}
			q := proql.MustParse(set.TargetQuery())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := proql.NewEngine(set.Sys).Eval(context.Background(), q, proql.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if res.Stats.Backend != "path" {
					b.Fatalf("auto ran the target query on %s, want path", res.Stats.Backend)
				}
			}
		})
	}
}

// BenchmarkFig8ChainVaryingDataPeers is experiment E3: 20-peer chain,
// sweeping the number of peers with local data.
func BenchmarkFig8ChainVaryingDataPeers(b *testing.B) {
	for _, d := range []int{1, 2, 3, 4, 5, 6} {
		b.Run(fmt.Sprintf("data=%d", d), func(b *testing.B) {
			benchTargetQuery(b, workload.Config{
				Topology:  workload.Chain,
				Profile:   workload.ProfileFan,
				NumPeers:  20,
				DataPeers: workload.DownstreamDataPeers(20, d),
				BaseSize:  20,
				Seed:      42,
			})
		})
	}
}

// BenchmarkFig9BaseSizeSweep is experiment E4: 20 peers, 3 upstream
// data peers, sweeping base size; both topologies.
func BenchmarkFig9BaseSizeSweep(b *testing.B) {
	for _, topo := range []workload.Topology{workload.Chain, workload.Branched} {
		for _, base := range []int{250, 500, 1000, 2000} {
			b.Run(fmt.Sprintf("%s/base=%d", topo, base), func(b *testing.B) {
				benchTargetQuery(b, workload.Config{
					Topology:  topo,
					Profile:   workload.ProfileLinear,
					NumPeers:  20,
					DataPeers: workload.UpstreamDataPeers(20, 3),
					BaseSize:  base,
					Seed:      42,
				})
			})
		}
	}
}

// BenchmarkFig10PeerSweep is experiment E5: fixed base size at 3
// upstream peers, sweeping the total number of peers.
func BenchmarkFig10PeerSweep(b *testing.B) {
	for _, topo := range []workload.Topology{workload.Chain, workload.Branched} {
		for _, peers := range []int{10, 20, 40, 80} {
			b.Run(fmt.Sprintf("%s/peers=%d", topo, peers), func(b *testing.B) {
				benchTargetQuery(b, workload.Config{
					Topology:  topo,
					Profile:   workload.ProfileLinear,
					NumPeers:  peers,
					DataPeers: workload.UpstreamDataPeers(peers, 3),
					BaseSize:  250,
					Seed:      42,
				})
			})
		}
	}
}

func benchASR(b *testing.B, cfg workload.Config, lens []int) {
	b.Helper()
	set, err := workload.Build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	eng := proql.NewEngine(set.Sys)
	q, err := proql.Parse(set.TargetQuery())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("noASR", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eng.Exec(context.Background(), q, relational); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, kind := range []asr.Kind{asr.CompletePath, asr.Subpath, asr.Prefix, asr.Suffix} {
		for _, maxLen := range lens {
			ix := asr.NewIndex(set.Sys)
			for _, chain := range set.AChains() {
				for _, seg := range workload.SplitChain(chain, maxLen) {
					if _, err := ix.Define(kind, seg...); err != nil {
						b.Fatal(err)
					}
				}
			}
			if err := ix.Materialize(); err != nil {
				b.Fatal(err)
			}
			eng.RewriteRules = ix.RewriteRules
			b.Run(fmt.Sprintf("%s/len=%d", kind, maxLen), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := eng.Exec(context.Background(), q, relational); err != nil {
						b.Fatal(err)
					}
				}
			})
			eng.RewriteRules = nil
			ix.DropAll()
		}
	}
}

// BenchmarkFig11ASRChain20 is experiment E6: 20-peer chain, 2 peers
// with data, ASR types × path lengths versus the no-ASR baseline.
func BenchmarkFig11ASRChain20(b *testing.B) {
	benchASR(b, workload.Config{
		Topology:  workload.Chain,
		Profile:   workload.ProfileLinear,
		NumPeers:  20,
		DataPeers: workload.UpstreamDataPeers(20, 2),
		BaseSize:  1000,
		Seed:      42,
	}, []int{2, 4, 8})
}

// BenchmarkFig12ASRChain8 is experiment E7: 8-peer chain, 4 peers with
// data.
func BenchmarkFig12ASRChain8(b *testing.B) {
	benchASR(b, workload.Config{
		Topology:  workload.Chain,
		Profile:   workload.ProfileLinear,
		NumPeers:  8,
		DataPeers: workload.UpstreamDataPeers(8, 4),
		BaseSize:  1000,
		Seed:      42,
	}, []int{2, 4, 7})
}

// BenchmarkFig13ASRBranched is experiment E8: branched topology of 20
// peers, 4 with data.
func BenchmarkFig13ASRBranched(b *testing.B) {
	benchASR(b, workload.Config{
		Topology:  workload.Branched,
		Profile:   workload.ProfileLinear,
		NumPeers:  20,
		DataPeers: workload.UpstreamDataPeers(20, 4),
		BaseSize:  1000,
		Seed:      42,
	}, []int{2, 4})
}

// BenchmarkAnnotationOverhead is experiment E9: the Section 6.1.2
// observation that annotation computation adds little over the graph-
// projection component — on the paper's relational translation and on
// the path executor, which auto runs for both queries.
func BenchmarkAnnotationOverhead(b *testing.B) {
	set, err := workload.Build(workload.Config{
		Topology:  workload.Chain,
		Profile:   workload.ProfileLinear,
		NumPeers:  20,
		DataPeers: workload.UpstreamDataPeers(20, 3),
		BaseSize:  500,
		Seed:      42,
	})
	if err != nil {
		b.Fatal(err)
	}
	eng := proql.NewEngine(set.Sys)
	proj, err := proql.Parse(set.TargetQuery())
	if err != nil {
		b.Fatal(err)
	}
	annot, err := proql.Parse(set.TargetAnnotationQuery())
	if err != nil {
		b.Fatal(err)
	}
	for _, backend := range []string{"relational", "path"} {
		for _, arm := range []struct {
			name string
			q    *proql.Query
		}{{"projection", proj}, {"annotated", annot}} {
			b.Run(arm.name+"/"+backend, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := eng.Exec(context.Background(), arm.q, proql.Options{Backend: backend}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkMultiPathMatch measures the path backend on a multi-path
// common-provenance query (the Q4 shape): the physical-plan pipeline
// (indexed scans + a join on the shared variable) over the provenance
// relations, with the plan cached.
func BenchmarkMultiPathMatch(b *testing.B) {
	set, err := workload.Build(workload.Config{
		Topology:  workload.Chain,
		Profile:   workload.ProfileLinear,
		NumPeers:  8,
		DataPeers: workload.UpstreamDataPeers(8, 2),
		BaseSize:  40,
		Seed:      42,
	})
	if err != nil {
		b.Fatal(err)
	}
	q, err := proql.Parse(fmt.Sprintf(
		"FOR [%s $x] <-+ [$z], [%s $y] <-+ [$z] RETURN $x, $y",
		workload.ARel(0), workload.ARel(1)))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("asr", func(b *testing.B) {
		goal := proql.NewEngine(set.Sys)
		if _, err := goal.Exec(context.Background(), q, proql.Options{Backend: "path"}); err != nil { // fill the plan cache
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := goal.Exec(context.Background(), q, proql.Options{Backend: "path"}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRelationalPointQuery measures the relational backend on the
// 10-peer chain the served point-read workload uses: "point" is the
// paper's core question about one tuple (an anchor WHERE pinning the
// key, answered by key and index probes), "whole-target" the same
// projection for every target tuple (no WHERE: one scan per rule, the
// other atoms reached by key probes).
func BenchmarkRelationalPointQuery(b *testing.B) {
	set, err := workload.Build(servedConfig("S"))
	if err != nil {
		b.Fatal(err)
	}
	eng := proql.NewEngine(set.Sys)
	var keys []model.Datum
	set.Sys.DB.MustTable(workload.ARel(0)).Iterate(func(row model.Tuple) bool {
		keys = append(keys, row[0])
		return true
	})
	b.Run("point", func(b *testing.B) {
		qs := make([]*proql.Query, len(keys))
		for i, k := range keys {
			qs[i], err = proql.Parse(fmt.Sprintf("FOR [A0 $x] WHERE $x.k = %v INCLUDE PATH [$x] <-+ [] RETURN $x", k))
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := eng.Exec(context.Background(), qs[i%len(qs)], relational)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Bindings) != 1 {
				b.Fatalf("point query bound %d tuples, want 1", len(res.Bindings))
			}
		}
	})
	b.Run("whole-target", func(b *testing.B) {
		q, err := proql.Parse(set.TargetQuery())
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := eng.Exec(context.Background(), q, relational)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Bindings) != len(keys) {
				b.Fatalf("target query bound %d tuples, want %d", len(res.Bindings), len(keys))
			}
		}
	})
}

// servedConfig is the chain instance the served-path benchmark (bench/)
// runs its workloads on: S is 10 peers with 2 upstream data peers
// (point-read, mixed-churn), M 20 peers with 3 (analytic-read,
// write-durable), 500 local rows per data peer.
func servedConfig(size string) workload.Config {
	peers, data := 10, 2
	if size == "M" {
		peers, data = 20, 3
	}
	return workload.Config{
		Topology:  workload.Chain,
		Profile:   workload.ProfileLinear,
		NumPeers:  peers,
		DataPeers: workload.UpstreamDataPeers(peers, data),
		BaseSize:  500,
		Seed:      7,
	}
}

// BenchmarkGraphPointQuery is BenchmarkRelationalPointQuery's point
// question on the path backend (sub-benchmark name asr, the backend's
// former name, kept for comparison with earlier runs), on instance S:
// a WHERE that fixes the start relation's key starts the path from
// one point lookup. Every query binds its own view of the snapshot it
// pins, so there is no warm or cold state to tell apart.
func BenchmarkGraphPointQuery(b *testing.B) {
	set, err := workload.Build(servedConfig("S"))
	if err != nil {
		b.Fatal(err)
	}
	eng := proql.NewEngine(set.Sys)
	var qs []*proql.Query
	set.Sys.DB.MustTable(workload.ARel(0)).Iterate(func(row model.Tuple) bool {
		qs = append(qs, proql.MustParse(fmt.Sprintf("FOR [A0 $x] WHERE $x.k = %v INCLUDE PATH [$x] <-+ [] RETURN $x", row[0])))
		return true
	})
	b.Run("asr", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := eng.Exec(context.Background(), qs[i%len(qs)], proql.Options{Backend: "path"})
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Bindings) != 1 {
				b.Fatalf("point query bound %d tuples, want 1", len(res.Bindings))
			}
		}
	})
}

// multipathQuery is the served analytic workload's common-provenance
// question: pairs of target and A1 tuples that share an ancestor.
const multipathQuery = "FOR [A0 $x] <-+ [$z], [A1 $y] <-+ [$z] RETURN $x, $y"

// multipathIncludeQuery is multipathQuery with an INCLUDE path on a
// returned variable: the distinct join stays fused, and its pairs
// stream through the Include above it.
const multipathIncludeQuery = "FOR [A0 $x] <-+ [$z], [A1 $y] <-+ [$z] INCLUDE PATH [$x] <-+ [] RETURN $x, $y"

// BenchmarkAnalyticShapes runs the served analytic-read workload's
// query shapes in process on instance M, the way proqld answers them:
// Eval, then the sorted distinct refs of every variable. "bindings" is
// the number of RETURN rows (140,652 pairs for the multipath shape).
// The cold arms commit before every query, with the timer stopped —
// a local row of the most upstream peer goes, then comes back — so
// every path query reads a new epoch and builds its dense tables
// instead of taking the ones the last query shared.
func BenchmarkAnalyticShapes(b *testing.B) {
	set, err := workload.Build(servedConfig("M"))
	if err != nil {
		b.Fatal(err)
	}
	eng := proql.NewEngine(set.Sys)
	up := workload.ARel(set.Config.NumPeers - 1)
	row := set.Sys.DB.MustTable(up + "_l").Rows()[0]
	commits := 0
	commit := func() {
		var err error
		if commits++; commits%2 == 1 {
			_, err = set.Sys.DeleteLocal(up, []model.Datum{row[0]})
		} else if err = set.Sys.InsertLocal(up, row); err == nil {
			_, err = set.Sys.RunDelta()
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, arm := range []struct {
		name, query, backend string
		cold                 bool
	}{
		{"target/auto", set.TargetQuery(), "auto", false},
		{"target/asr", set.TargetQuery(), "path", false},
		{"target/asr-cold", set.TargetQuery(), "path", true},
		{"target/relational", set.TargetQuery(), "relational", false},
		{"trust/auto", set.TargetAnnotationQuery(), "auto", false},
		{"trust/asr", set.TargetAnnotationQuery(), "path", false},
		{"trust/asr-cold", set.TargetAnnotationQuery(), "path", true},
		{"multipath/asr", multipathQuery, "path", false},
		{"multipath/asr-cold", multipathQuery, "path", true},
		{"include/asr", multipathIncludeQuery, "path", false},
	} {
		b.Run(arm.name, func(b *testing.B) {
			q := proql.MustParse(arm.query)
			serve := func() int {
				res, err := eng.Eval(context.Background(), q, proql.Options{Backend: arm.backend})
				if err != nil {
					b.Fatal(err)
				}
				for _, v := range res.Vars() {
					res.SortedRefs(v)
				}
				return res.Len()
			}
			serve() // fill the plan cache
			b.ReportAllocs()
			b.ResetTimer()
			rows := 0
			for i := 0; i < b.N; i++ {
				if arm.cold {
					b.StopTimer()
					commit()
					b.StartTimer()
				}
				rows = serve()
			}
			b.StopTimer()
			if commits%2 == 1 {
				commit() // the row back, for the arms after this one
			}
			b.ReportMetric(float64(rows), "bindings")
		})
	}
}

// BenchmarkExchangeCompiled measures update-exchange materialization
// itself — the offline step whose output all queries consume — on the
// compiled semi-naive engine, with the firing hook recording one
// provenance row per derivation.
func BenchmarkExchangeCompiled(b *testing.B) {
	for _, base := range []int{250, 1000} {
		b.Run(fmt.Sprintf("base=%d", base), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := workload.Build(workload.Config{
					Topology:  workload.Chain,
					Profile:   workload.ProfileLinear,
					NumPeers:  10,
					DataPeers: workload.UpstreamDataPeers(10, 2),
					BaseSize:  base,
					Seed:      42,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIncrementalDeletion quantifies the paper's Q5 claim —
// "provenance can speed up this test" — by comparing deletion
// propagation against rebuilding the exchange from scratch on the
// reduced base data. The "provenance" arm is the delta-driven
// propagator walking the provenance tables exchange recorded.
func BenchmarkIncrementalDeletion(b *testing.B) {
	cfg := workload.Config{
		Topology:  workload.Chain,
		Profile:   workload.ProfileLinear,
		NumPeers:  10,
		DataPeers: workload.UpstreamDataPeers(10, 2),
		BaseSize:  500,
		Seed:      42,
	}
	b.Run("provenance", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			set, err := workload.Build(cfg)
			if err != nil {
				b.Fatal(err)
			}
			key := []model.Datum{int64(9)*10_000_000 + int64(i%cfg.BaseSize)}
			b.StartTimer()
			if _, err := set.Sys.DeleteLocal(workload.ARel(9), key); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rebuild", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// Rebuilding re-runs generation + exchange on the full
			// base data; the deletion itself is the cheap part.
			if _, err := workload.Build(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkIncrementalInsertion quantifies the insertion-side twin of
// the Q5 claim: propagating a handful of new base tuples into an
// already-exchanged Fig.-10-scale setting. The "delta" arm seeds the
// semi-naive rounds from the pending rows alone (RunDelta over the
// persistent engine state); "full-rerun" re-runs the whole compiled
// fixpoint after the same inserts (the pre-PR-4 behavior of
// InsertLocal+Run).
// Each iteration inserts fresh keys, so every measurement propagates
// the same amount of new data through a warm system.
func BenchmarkIncrementalInsertion(b *testing.B) {
	cfg := workload.Config{
		Topology:  workload.Chain,
		Profile:   workload.ProfileLinear,
		NumPeers:  10,
		DataPeers: workload.UpstreamDataPeers(10, 2),
		BaseSize:  500,
		Seed:      42,
	}
	const batch = 5
	src := cfg.NumPeers - 1
	newRows := func(next *int64) []model.Tuple {
		rows := make([]model.Tuple, batch)
		for j := range rows {
			k := int64(src)*10_000_000 + int64(cfg.BaseSize) + *next
			*next++
			row := model.Tuple{k, k % int64(16)}
			for a := 0; a < 10; a++ {
				row = append(row, k+int64(a))
			}
			rows[j] = row
		}
		return rows
	}
	b.Run("delta", func(b *testing.B) {
		set, err := workload.Build(cfg)
		if err != nil {
			b.Fatal(err)
		}
		var next int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := set.Sys.InsertLocal(workload.ARel(src), newRows(&next)...); err != nil {
				b.Fatal(err)
			}
			report, err := set.Sys.RunDelta()
			if err != nil {
				b.Fatal(err)
			}
			if report.Full {
				b.Fatal("delta arm fell back to a full run")
			}
		}
	})
	b.Run("full-rerun", func(b *testing.B) {
		set, err := workload.Build(cfg)
		if err != nil {
			b.Fatal(err)
		}
		var next int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := set.Sys.InsertLocal(workload.ARel(src), newRows(&next)...); err != nil {
				b.Fatal(err)
			}
			if err := set.Sys.Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkInterleavedChurn is the mixed-workload twin of the two
// incremental benchmarks above (experiment E12): every iteration
// retracts one existing base tuple AND inserts a batch of fresh ones
// at the far peer, then propagates. The "delta" arm exercises journal
// repair — DeleteLocal feeds its report back into the persistent
// engine state, so the following RunDelta stays delta-seeded instead
// of falling back to a full fixpoint; "full-rerun" is the pre-repair
// behavior (deletion invalidates, Run pays the whole fixpoint).
func BenchmarkInterleavedChurn(b *testing.B) {
	cfg := workload.Config{
		Topology:  workload.Chain,
		Profile:   workload.ProfileLinear,
		NumPeers:  10,
		DataPeers: workload.UpstreamDataPeers(10, 2),
		BaseSize:  500,
		Seed:      42,
	}
	const batch = 5
	src := cfg.NumPeers - 1
	newRows := func(next *int64) []model.Tuple {
		rows := make([]model.Tuple, batch)
		for j := range rows {
			k := int64(src)*10_000_000 + int64(cfg.BaseSize) + *next
			*next++
			row := model.Tuple{k, k % int64(16)}
			for a := 0; a < 10; a++ {
				row = append(row, k+int64(a))
			}
			rows[j] = row
		}
		return rows
	}
	// Iteration 0 deletes a base row; later iterations delete the first
	// row inserted by the previous iteration, so every deletion is a
	// real retraction no matter how large b.N grows (cycling over the
	// base range would turn iterations past BaseSize into no-op
	// deletes and skip the journal-repair work being measured).
	churnArm := func(b *testing.B, set *workload.Setting, propagate func() error) {
		b.Helper()
		var next int64
		var delKey int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			key := []model.Datum{int64(src)*10_000_000 + delKey}
			if _, err := set.Sys.DeleteLocal(workload.ARel(src), key); err != nil {
				b.Fatal(err)
			}
			if err := set.Sys.InsertLocal(workload.ARel(src), newRows(&next)...); err != nil {
				b.Fatal(err)
			}
			delKey = int64(cfg.BaseSize) + int64(i)*batch
			if err := propagate(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("delta", func(b *testing.B) {
		set, err := workload.Build(cfg)
		if err != nil {
			b.Fatal(err)
		}
		churnArm(b, set, func() error {
			report, err := set.Sys.RunDelta()
			if err != nil {
				return err
			}
			if report.Full {
				b.Fatal("delta arm fell back to a full run")
			}
			return nil
		})
	})
	b.Run("full-rerun", func(b *testing.B) {
		set, err := workload.Build(cfg)
		if err != nil {
			b.Fatal(err)
		}
		churnArm(b, set, set.Sys.Run)
	})
}

// BenchmarkDurableCommit is the served-path benchmark's write-durable
// write in process: the 5-row insert/delete toggle at the far upstream
// peer of instance M through the facade, fsync per commit, checkpoint
// every 256 commits, 64 epochs retained. Each arm times its half of
// the toggle and reports what the log did for it: syncs/op is 1 and
// loggedB/op the frame's payload, unless an acknowledged write costs
// more than one commit.
func BenchmarkDurableCommit(b *testing.B) {
	cfg := servedConfig("M")
	rel := workload.ARel(cfg.NumPeers - 1)
	rows := make([]model.Tuple, 5)
	keys := make([][]model.Datum, len(rows))
	for j := range rows {
		k := int64(cfg.NumPeers-1)*10_000_000 + int64(cfg.BaseSize) + int64(j)
		row := model.Tuple{k, int64(j % 16)}
		for a := 0; a < 10; a++ {
			row = append(row, k+int64(a))
		}
		rows[j], keys[j] = row, row[:1]
	}
	for _, arm := range []string{"insert", "delete"} {
		b.Run(arm, func(b *testing.B) {
			set, st, err := workload.OpenDurable(cfg, b.TempDir(), wal.Options{SyncEvery: 1, CheckpointEvery: 256, Retain: 64})
			if err != nil {
				b.Fatal(err)
			}
			sys := core.WrapDurable(set.Sys, st)
			defer sys.Close()
			write := func(insert bool) {
				var err error
				if insert {
					_, err = sys.Insert(rel, rows...)
				} else {
					_, _, err = sys.Delete(rel, keys...)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			var syncs, logged int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if arm == "delete" {
					b.StopTimer()
					write(true)
					b.StartTimer()
				}
				s0 := st.Stats()
				write(arm == "insert")
				s1 := st.Stats()
				syncs += s1.Syncs - s0.Syncs
				logged += s1.PayloadBytes - s0.PayloadBytes
				if arm == "insert" {
					b.StopTimer()
					write(false)
					b.StartTimer()
				}
			}
			b.ReportMetric(float64(syncs)/float64(b.N), "syncs/op")
			b.ReportMetric(float64(logged)/float64(b.N), "loggedB/op")
		})
	}
}

// BenchmarkSuperfluousProvenance is the storage ablation of Section
// 4.1: materializing all provenance relations versus replacing
// projection mappings with views.
func BenchmarkSuperfluousProvenance(b *testing.B) {
	q := `FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x`
	for _, materializeAll := range []bool{false, true} {
		name := "views"
		if materializeAll {
			name = "materializeAll"
		}
		sys := fixture.MustSystem(fixture.Options{
			Exchange: exchange.Options{MaterializeAll: materializeAll},
		})
		eng := proql.NewEngine(sys)
		pq := proql.MustParse(q)
		b.Run(name, func(b *testing.B) {
			b.ReportMetric(float64(sys.ProvRowCount()), "provrows")
			for i := 0; i < b.N; i++ {
				if _, err := eng.Exec(context.Background(), pq, relational); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
