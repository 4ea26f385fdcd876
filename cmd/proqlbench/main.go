// Command proqlbench regenerates every table and figure of the
// paper's evaluation (Section 6), printing the same series the paper
// plots. Default scales are laptop-friendly; -scale=paper uses the
// paper's parameters (much slower).
//
// Usage:
//
//	proqlbench                  # all experiments, default scale
//	proqlbench -exp=fig11       # one experiment
//	proqlbench -scale=paper     # paper-scale parameters
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/asr"
	"repro/internal/relstore"
	"repro/internal/workload"
)

// The -json flag emits the incremental-maintenance sweeps (del, ins,
// mix) in a machine-readable form — the repo's perf trajectory. CI
// writes BENCH_pr<N>.json per run and cmd/benchgate fails the build on
// a >2× regression against the checked-in BENCH_baseline.json.

type benchDelRow struct {
	Peers              int   `json:"peers"`
	MaintainNS         int64 `json:"maintain_ns"`
	RebuildNS          int64 `json:"rebuild_ns"`
	TuplesVisited      int   `json:"tuples_visited"`
	DerivationsVisited int   `json:"derivations_visited"`
	InstanceRows       int   `json:"instance_rows"`
}

type benchInsRow struct {
	Peers            int   `json:"peers"`
	DeltaNS          int64 `json:"delta_ns"`
	FullRerunNS      int64 `json:"full_rerun_ns"`
	RebuildNS        int64 `json:"rebuild_ns"`
	DeltaDerivations int   `json:"delta_derivations"`
	InstanceRows     int   `json:"instance_rows"`
}

type benchMixRow struct {
	Peers            int   `json:"peers"`
	DeltaNS          int64 `json:"delta_ns"`
	FullRerunNS      int64 `json:"full_rerun_ns"`
	RebuildNS        int64 `json:"rebuild_ns"`
	ASRPatchNS       int64 `json:"asr_patch_ns"`
	ASRRematNS       int64 `json:"asr_remat_ns"`
	DeltaDerivations int   `json:"delta_derivations"`
	TuplesVisited    int   `json:"tuples_visited"`
	InstanceRows     int   `json:"instance_rows"`
}

type benchProQLRow struct {
	Scale        int   `json:"scale"`
	GraphBuildNS int64 `json:"graph_build_ns"`
	GraphEvalNS  int64 `json:"graph_eval_ns"`
	ASRFirstNS   int64 `json:"asr_first_ns"`
	ASREvalNS    int64 `json:"asr_eval_ns"`
	GraphBuilds  int64 `json:"graph_builds"`
	InstanceRows int   `json:"instance_rows"`
}

type benchServeRow struct {
	Backend      string `json:"backend"`
	Readers      int    `json:"readers"`
	Queries      int    `json:"queries"`
	Errors       int    `json:"errors"`
	P50NS        int64  `json:"p50_ns"`
	P99NS        int64  `json:"p99_ns"`
	MaxNS        int64  `json:"max_ns"`
	SoloP50NS    int64  `json:"solo_p50_ns"`
	Commits      int    `json:"commits"`
	ElapsedNS    int64  `json:"elapsed_ns"`
	InstanceRows int    `json:"instance_rows"`
}

type benchRecoverRow struct {
	Peers         int   `json:"peers"`
	RecoverNS     int64 `json:"recover_ns"`
	ColdNS        int64 `json:"cold_ns"`
	ReplayBatches int   `json:"replay_batches"`
	InstanceRows  int   `json:"instance_rows"`
}

type benchAsOfRow struct {
	Depth            uint64 `json:"depth"`
	LiveNS           int64  `json:"live_ns"`
	AsOfNS           int64  `json:"asof_ns"`
	FloorEpoch       uint64 `json:"floor_epoch"`
	WindowEpochs     uint64 `json:"window_epochs"`
	RetainedVersions int64  `json:"retained_versions"`
	InstanceRows     int    `json:"instance_rows"`
}

type benchJSON struct {
	Schema  string            `json:"schema"`
	Scale   string            `json:"scale"`
	Del     []benchDelRow     `json:"del,omitempty"`
	Ins     []benchInsRow     `json:"ins,omitempty"`
	Mix     []benchMixRow     `json:"mix,omitempty"`
	Proql   []benchProQLRow   `json:"proql,omitempty"`
	Serve   []benchServeRow   `json:"serve,omitempty"`
	Recover []benchRecoverRow `json:"recover,omitempty"`
	Asof    []benchAsOfRow    `json:"asof,omitempty"`
}

// collected gathers sweep results when -json is set.
var collected *benchJSON

type scaleParams struct {
	fig7Peers   []int
	fig7Base    int
	fig8Peers   int
	fig8Data    []int
	fig8Base    int
	fig9Peers   int
	fig9Bases   []int
	fig10Peers  []int
	fig10Base   int
	scaleData   int
	asrBase     int
	fig11Peers  int
	fig11Data   int
	fig11Lens   []int
	fig12Peers  int
	fig12Data   int
	fig12Lens   []int
	fig13Peers  int
	fig13Data   int
	fig13Lens   []int
	delPeers    []int
	delData     int
	delBase     int
	insBatch    int
	recovPeers  []int
	recovBase   int
	recovBatch  int
	proqlScales []int
	proqlPeers  int
	proqlData   int
	proqlBase   int
	serveReader []int
	servePeers  int
	serveData   int
	serveBase   int
	serveBatch  int
	serveQPR    int
	asofDepths  []uint64
	asofPeers   int
	asofData    int
	asofBase    int
	asofBatch   int
	asofChurn   int
	runs        int
	seed        int64
}

func defaultScale() scaleParams {
	return scaleParams{
		fig7Peers:  []int{2, 3, 4, 5, 6, 7},
		fig7Base:   20,
		fig8Peers:  20,
		fig8Data:   []int{1, 2, 3, 4, 5, 6, 7},
		fig8Base:   20,
		fig9Peers:  20,
		fig9Bases:  []int{250, 500, 1000, 2000, 4000},
		fig10Peers: []int{10, 20, 30, 40, 60, 80},
		fig10Base:  500,
		scaleData:  3,
		asrBase:    2000,
		fig11Peers: 20, fig11Data: 2, fig11Lens: []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
		fig12Peers: 8, fig12Data: 4, fig12Lens: []int{1, 2, 3, 4, 5, 6, 7},
		fig13Peers: 20, fig13Data: 4, fig13Lens: []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
		delPeers: []int{10, 20, 40}, delData: 2, delBase: 500,
		insBatch:   5,
		recovPeers: []int{6, 10}, recovBase: 4000, recovBatch: 10,
		proqlScales: []int{1, 10, 100}, proqlPeers: 8, proqlData: 2, proqlBase: 20,
		serveReader: []int{1, 4}, servePeers: 8, serveData: 2, serveBase: 100,
		serveBatch: 5, serveQPR: 20,
		asofDepths: []uint64{8, relstore.RetainAll},
		asofPeers:  8, asofData: 2, asofBase: 100, asofBatch: 5, asofChurn: 6,
		runs: 5,
		seed: 42,
	}
}

// ciScale trims the incremental-maintenance sweeps so the CI bench
// job finishes in seconds while still covering two chain lengths; the
// checked-in BENCH_baseline.json is recorded at this scale.
func ciScale() scaleParams {
	p := defaultScale()
	p.delPeers = []int{10, 20}
	p.delBase = 500
	p.serveBase = 50
	p.serveQPR = 25
	p.asofBase = 50
	p.runs = 5
	return p
}

func paperScale() scaleParams {
	p := defaultScale()
	p.fig7Peers = []int{2, 3, 4, 5, 6, 7, 8}
	p.fig7Base = 100
	p.fig8Data = []int{1, 2, 3, 4, 5, 6, 7, 8}
	p.fig8Base = 100
	p.fig9Bases = []int{10000, 20000, 30000, 40000, 50000, 60000, 70000, 80000}
	p.fig10Base = 10000
	p.asrBase = 50000
	p.delPeers = []int{10, 20, 40, 80}
	p.delBase = 2000
	p.recovPeers = []int{10, 20}
	p.recovBase = 8000
	p.proqlBase = 100
	p.asofBase = 500
	p.runs = 7
	return p
}

func main() {
	var (
		exp      = flag.String("exp", "all", "comma-separated experiments: table1, fig7, fig8, fig9, fig10, fig11, fig12, fig13, annot, del, ins, mix, proql, serve, recover, asof, or all")
		scale    = flag.String("scale", "default", "default, ci, or paper")
		jsonPath = flag.String("json", "", "write the del/ins/mix sweep results to this file (perf-trajectory JSON)")
	)
	flag.Parse()
	p := defaultScale()
	switch *scale {
	case "default":
	case "paper":
		p = paperScale()
	case "ci":
		p = ciScale()
	default:
		fmt.Fprintf(os.Stderr, "unknown -scale %q (want default, ci, or paper)\n", *scale)
		os.Exit(2)
	}
	if *jsonPath != "" {
		collected = &benchJSON{Schema: "proqlbench-v1", Scale: *scale}
	}
	known := []string{"all", "table1", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "annot", "del", "ins", "mix", "proql", "serve", "recover", "asof"}
	isKnown := map[string]bool{}
	for _, name := range known {
		isKnown[name] = true
	}
	want := map[string]bool{}
	for _, name := range strings.Split(*exp, ",") {
		if name = strings.TrimSpace(name); name == "" {
			continue
		}
		if !isKnown[name] {
			fmt.Fprintf(os.Stderr, "unknown -exp %q (want one of: %s)\n", name, strings.Join(known, ", "))
			os.Exit(2)
		}
		want[name] = true
	}
	run := func(name string, fn func(scaleParams) error) {
		if !want["all"] && !want[name] {
			return
		}
		fmt.Printf("===== %s =====\n", name)
		if err := fn(p); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}
	run("table1", runTable1)
	run("fig7", runFig7)
	run("fig8", runFig8)
	run("fig9", runFig9)
	run("fig10", runFig10)
	run("fig11", func(p scaleParams) error {
		return runASR("Figure 11 (chain, 20 peers, 2 with data)", workload.Config{
			Topology: workload.Chain, Profile: workload.ProfileLinear,
			NumPeers: p.fig11Peers, DataPeers: workload.UpstreamDataPeers(p.fig11Peers, p.fig11Data),
			BaseSize: p.asrBase, Seed: p.seed,
		}, p.fig11Lens, p.runs)
	})
	run("fig12", func(p scaleParams) error {
		return runASR("Figure 12 (chain, 8 peers, 4 with data)", workload.Config{
			Topology: workload.Chain, Profile: workload.ProfileLinear,
			NumPeers: p.fig12Peers, DataPeers: workload.UpstreamDataPeers(p.fig12Peers, p.fig12Data),
			BaseSize: p.asrBase, Seed: p.seed,
		}, p.fig12Lens, p.runs)
	})
	run("fig13", func(p scaleParams) error {
		return runASR("Figure 13 (branched, 20 peers, 4 with data)", workload.Config{
			Topology: workload.Branched, Profile: workload.ProfileLinear,
			NumPeers: p.fig13Peers, DataPeers: workload.UpstreamDataPeers(p.fig13Peers, p.fig13Data),
			BaseSize: p.asrBase, Seed: p.seed,
		}, p.fig13Lens, p.runs)
	})
	run("annot", runAnnot)
	run("del", runDeletion)
	run("ins", runInsertion)
	run("mix", runMixed)
	run("proql", runProQL)
	run("serve", runServe)
	run("recover", runRecover)
	run("asof", runAsOf)
	if collected != nil {
		data, err := json.MarshalIndent(collected, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "marshal -json output: %v\n", err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
}

// runMixed is the interleaved-churn experiment (E12): every operation
// retracts one base tuple AND inserts a batch of fresh ones, then
// propagates. The delta arm exercises journal repair (the RunDelta
// after a DeleteLocal must stay delta-seeded) plus incremental ASR
// patching; the comparison arms pay a full fixpoint, a from-scratch
// rebuild, or a per-operation ASR re-materialization.
func runMixed(p scaleParams) error {
	fmt.Printf("Interleaved churn (E12): chain, base %d at %d upstream peers, 1 delete + %d inserts per op\n",
		p.delBase, p.delData, p.insBatch)
	fmt.Println("peers  mixed-delta  full-rerun  rebuild  asr-patch  asr-remat  delta-derivs  visited  instance")
	rows, err := workload.RunMixed(p.delPeers, p.delData, p.delBase, p.insBatch, p.runs, p.seed)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Printf("%5d  %11v  %10v  %7v  %9v  %9v  %12d  %7d  %8d\n",
			r.Peers, r.DeltaTime, r.FullRerunTime, r.RebuildTime,
			r.ASRPatchTime, r.ASRRematTime, r.DeltaDerivations, r.TuplesVisited, r.InstanceSize)
		if collected != nil {
			collected.Mix = append(collected.Mix, benchMixRow{
				Peers:            r.Peers,
				DeltaNS:          r.DeltaTime.Nanoseconds(),
				FullRerunNS:      r.FullRerunTime.Nanoseconds(),
				RebuildNS:        r.RebuildTime.Nanoseconds(),
				ASRPatchNS:       r.ASRPatchTime.Nanoseconds(),
				ASRRematNS:       r.ASRRematTime.Nanoseconds(),
				DeltaDerivations: r.DeltaDerivations,
				TuplesVisited:    r.TuplesVisited,
				InstanceRows:     r.InstanceSize,
			})
		}
	}
	return nil
}

// runProQL is the backend sweep (E14): the Q4-shaped multi-path
// common-provenance query at 1x/10x/100x of the base setting, on the
// goal-directed path executor (probe the provenance tables directly: no
// materialization, a join order read from the query syntax; the asr-*
// columns), next to the reference arm: materializing the whole
// provenance graph (graph-build) and a warm run on an engine that built
// it (graph-eval). graph-builds must read 0 — the path arms never pay
// the build column.
func runProQL(p scaleParams) error {
	fmt.Printf("ProQL backend sweep (E14): chain of %d peers, base %d at %d upstream peers, scales %v\n",
		p.proqlPeers, p.proqlBase, p.proqlData, p.proqlScales)
	fmt.Println("scale  graph-build  graph-eval  asr-first  asr-eval  graph-builds  instance")
	rows, err := workload.RunProQL(p.proqlScales, p.proqlPeers, p.proqlData, p.proqlBase, p.runs, p.seed)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Printf("%5d  %11v  %10v  %9v  %8v  %12d  %8d\n",
			r.Scale, r.GraphBuildTime, r.GraphEvalTime, r.ASRFirstTime, r.ASREvalTime,
			r.GraphBuilds, r.InstanceSize)
		if r.GraphBuilds != 0 {
			return fmt.Errorf("path arm materialized %d provenance graphs at scale %d, want 0", r.GraphBuilds, r.Scale)
		}
		if collected != nil {
			collected.Proql = append(collected.Proql, benchProQLRow{
				Scale:        r.Scale,
				GraphBuildNS: r.GraphBuildTime.Nanoseconds(),
				GraphEvalNS:  r.GraphEvalTime.Nanoseconds(),
				ASRFirstNS:   r.ASRFirstTime.Nanoseconds(),
				ASREvalNS:    r.ASREvalTime.Nanoseconds(),
				GraphBuilds:  r.GraphBuilds,
				InstanceRows: r.InstanceSize,
			})
		}
	}
	return nil
}

// runServe is the concurrent-serving experiment (E15): N reader
// goroutines per backend querying through the MVCC snapshot layer
// while a churn writer alternates committing and deleting a batch of
// base tuples. The gate bounds each row's p99 as a multiple of its
// own solo (serial, quiescent) p50 and requires zero read errors.
func runServe(p scaleParams) error {
	fmt.Printf("Concurrent serving (E15): chain of %d peers, base %d at %d upstream peers, %d queries/reader, churn batch %d\n",
		p.servePeers, p.serveBase, p.serveData, p.serveQPR, p.serveBatch)
	fmt.Println("backend     readers  queries  errors       p50       p99       max  solo-p50  commits  instance")
	rows, err := workload.RunServe(p.serveReader, p.servePeers, p.serveData, p.serveBase, p.serveBatch, p.serveQPR, p.seed)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Printf("%-10s  %7d  %7d  %6d  %8v  %8v  %8v  %8v  %7d  %8d\n",
			r.Backend, r.Readers, r.Queries, r.Errors, r.P50, r.P99, r.Max, r.SoloP50, r.Commits, r.InstanceSize)
		if r.Errors > 0 {
			return fmt.Errorf("serve %s/%d readers: %d read errors, want 0", r.Backend, r.Readers, r.Errors)
		}
		if collected != nil {
			collected.Serve = append(collected.Serve, benchServeRow{
				Backend:      r.Backend,
				Readers:      r.Readers,
				Queries:      r.Queries,
				Errors:       r.Errors,
				P50NS:        r.P50.Nanoseconds(),
				P99NS:        r.P99.Nanoseconds(),
				MaxNS:        r.Max.Nanoseconds(),
				SoloP50NS:    r.SoloP50.Nanoseconds(),
				Commits:      r.Commits,
				ElapsedNS:    r.Elapsed.Nanoseconds(),
				InstanceRows: r.InstanceSize,
			})
		}
	}
	return nil
}

// runRecover is the durable-restart experiment (E16): the same
// exchanged instance brought back by checkpoint + WAL-suffix replay +
// warm engine attach (never firing a rule) versus the cold full
// exchange a non-durable system pays — and the cold arm still loses
// the post-checkpoint churn, which only exists in the log.
func runRecover(p scaleParams) error {
	const churnOps = 5
	fmt.Printf("Durable restart (E16): fan chain, base %d at %d upstream peers, checkpoint + %d churn ops of %d inserts\n",
		p.recovBase, p.delData, churnOps, p.recovBatch)
	fmt.Println("peers  recover  cold-exchange  replayed  instance")
	rows, err := workload.RunRecovery(p.recovPeers, p.delData, p.recovBase, p.recovBatch, churnOps, p.runs, p.seed)
	if err != nil {
		return err
	}
	for _, r := range rows {
		share := float64(r.RecoverTime) / float64(r.ColdTime)
		fmt.Printf("%5d  %7v  %13v  %8d  %8d  (%.2fx of cold)\n",
			r.Peers, r.RecoverTime, r.ColdTime, r.ReplayBatches, r.InstanceSize, share)
		if collected != nil {
			collected.Recover = append(collected.Recover, benchRecoverRow{
				Peers:         r.Peers,
				RecoverNS:     r.RecoverTime.Nanoseconds(),
				ColdNS:        r.ColdTime.Nanoseconds(),
				ReplayBatches: r.ReplayBatches,
				InstanceRows:  r.InstanceSize,
			})
		}
	}
	return nil
}

// runAsOf is the time-travel experiment (E17): the target query
// answered live versus AS OF the retention floor — the oldest epoch
// the configured horizon keeps answerable — after an
// insert-propagate-delete churn populated the horizon with superseded
// versions. The gate bounds the AS OF arm as a share of the live arm
// and holds the retained-version count (the history memory overhead)
// exactly.
func runAsOf(p scaleParams) error {
	depths := make([]string, len(p.asofDepths))
	for i, d := range p.asofDepths {
		depths[i] = workload.DepthLabel(d)
	}
	fmt.Printf("Time travel (E17): chain of %d peers, base %d at %d upstream peers, %d churn ops of %d, horizons %s\n",
		p.asofPeers, p.asofBase, p.asofData, p.asofChurn, p.asofBatch, strings.Join(depths, ","))
	fmt.Println("depth      live     as-of  floor  window  retained  instance")
	rows, err := workload.RunTimeTravel(p.asofDepths, p.asofPeers, p.asofData, p.asofBase, p.asofBatch, p.asofChurn, p.runs, p.seed)
	if err != nil {
		return err
	}
	for _, r := range rows {
		share := float64(r.AsOfTime) / float64(r.LiveTime)
		fmt.Printf("%5s  %8v  %8v  %5d  %6d  %8d  %8d  (%.2fx of live)\n",
			workload.DepthLabel(r.Depth), r.LiveTime, r.AsOfTime, r.FloorEpoch, r.WindowEpochs,
			r.RetainedVersions, r.InstanceSize, share)
		if collected != nil {
			collected.Asof = append(collected.Asof, benchAsOfRow{
				Depth:            r.Depth,
				LiveNS:           r.LiveTime.Nanoseconds(),
				AsOfNS:           r.AsOfTime.Nanoseconds(),
				FloorEpoch:       r.FloorEpoch,
				WindowEpochs:     r.WindowEpochs,
				RetainedVersions: r.RetainedVersions,
				InstanceRows:     r.InstanceSize,
			})
		}
	}
	return nil
}

// runInsertion is the insertion-side twin of the Q5 experiment: a
// small batch of new base tuples propagated by the Δ-seeded RunDelta,
// by a full re-run of the compiled fixpoint, and by full re-exchange.
func runInsertion(p scaleParams) error {
	fmt.Printf("Incremental insertion: chain, base %d at %d upstream peers, %d fresh tuples inserted\n",
		p.delBase, p.delData, p.insBatch)
	fmt.Println("peers  delta-run  full-rerun  rebuild  delta-derivs  instance")
	rows, err := workload.RunInsertion(p.delPeers, p.delData, p.delBase, p.insBatch, p.runs, p.seed)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Printf("%5d  %9v  %10v  %7v  %12d  %9d\n",
			r.Peers, r.DeltaTime, r.FullRerunTime, r.RebuildTime,
			r.DeltaDerivations, r.InstanceSize)
		if collected != nil {
			collected.Ins = append(collected.Ins, benchInsRow{
				Peers:            r.Peers,
				DeltaNS:          r.DeltaTime.Nanoseconds(),
				FullRerunNS:      r.FullRerunTime.Nanoseconds(),
				RebuildNS:        r.RebuildTime.Nanoseconds(),
				DeltaDerivations: r.DeltaDerivations,
				InstanceRows:     r.InstanceSize,
			})
		}
	}
	return nil
}

// runDeletion is the use-case-Q5 experiment: one base-tuple deletion
// propagated by the delta-driven walk over the provenance tables and
// by full re-exchange.
func runDeletion(p scaleParams) error {
	fmt.Printf("Incremental deletion (Q5): chain, base %d at %d upstream peers, one base tuple deleted\n", p.delBase, p.delData)
	fmt.Println("peers  delta-maintain  rebuild  visited(tuples/derivs)  instance")
	rows, err := workload.RunDeletion(p.delPeers, p.delData, p.delBase, p.runs, p.seed)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Printf("%5d  %14v  %7v  %11s  %9d\n",
			r.Peers, r.MaintainTime, r.RebuildTime,
			fmt.Sprintf("%d/%d", r.TuplesVisited, r.DerivationsVisited), r.InstanceSize)
		if collected != nil {
			collected.Del = append(collected.Del, benchDelRow{
				Peers:              r.Peers,
				MaintainNS:         r.MaintainTime.Nanoseconds(),
				RebuildNS:          r.RebuildTime.Nanoseconds(),
				TuplesVisited:      r.TuplesVisited,
				DerivationsVisited: r.DerivationsVisited,
				InstanceRows:       r.InstanceSize,
			})
		}
	}
	return nil
}

// runTable1 runs one EVALUATE query per Table 1 semiring over the
// Figure 1 setting (experiment E1).
func runTable1(p scaleParams) error {
	values, err := workload.RunTable1("")
	if err != nil {
		return err
	}
	fmt.Println("Table 1: annotation of O(cn1,7,true) in each semiring over the Figure 1 graph")
	for i, name := range workload.Table1Semirings {
		fmt.Printf("  %-16s %s\n", name, values[i])
	}
	return nil
}

func runFig7(p scaleParams) error {
	fmt.Println("Figure 7: chain, data at every peer (fan profile)")
	fmt.Println("peers  unfolded-rules  unfold-time  eval-time")
	rows, err := workload.RunFig7(p.fig7Peers, p.fig7Base, p.seed)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Printf("%5d  %14d  %11v  %9v\n", r.X, r.UnfoldedRules, r.UnfoldTime, r.EvalTime)
	}
	return nil
}

func runFig8(p scaleParams) error {
	fmt.Printf("Figure 8: chain of %d peers, varying peers with data (fan profile)\n", p.fig8Peers)
	fmt.Println("data-peers  unfolded-rules  unfold-time  eval-time")
	rows, err := workload.RunFig8(p.fig8Peers, p.fig8Data, p.fig8Base, p.seed)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Printf("%10d  %14d  %11v  %9v\n", r.X, r.UnfoldedRules, r.UnfoldTime, r.EvalTime)
	}
	return nil
}

func runFig9(p scaleParams) error {
	fmt.Printf("Figure 9: %d peers, %d upstream data peers, varying base size\n", p.fig9Peers, p.scaleData)
	fmt.Println("base-size  chain-time  branched-time  chain-tuples  branched-tuples")
	rows, err := workload.RunFig9(p.fig9Peers, p.scaleData, p.fig9Bases, p.runs, p.seed)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Printf("%9d  %10v  %13v  %12d  %15d\n", r.X, r.ChainTime, r.BranchedTime, r.ChainSize, r.BranchedSize)
	}
	return nil
}

func runFig10(p scaleParams) error {
	fmt.Printf("Figure 10: base %d at %d upstream peers, varying number of peers\n", p.fig10Base, p.scaleData)
	fmt.Println("peers  chain-time  branched-time  chain-tuples  branched-tuples")
	rows, err := workload.RunFig10(p.fig10Peers, p.scaleData, p.fig10Base, p.runs, p.seed)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Printf("%5d  %10v  %13v  %12d  %15d\n", r.X, r.ChainTime, r.BranchedTime, r.ChainSize, r.BranchedSize)
	}
	return nil
}

func runASR(title string, cfg workload.Config, lens []int, runs int) error {
	kinds := []asr.Kind{asr.CompletePath, asr.Subpath, asr.Prefix, asr.Suffix}
	exp, err := workload.RunASRSweep(cfg, lens, kinds, runs)
	if err != nil {
		return err
	}
	fmt.Println(title)
	fmt.Printf("no-ASR baseline: %v\n", exp.Baseline)
	fmt.Printf("path executor, no ASR: %v\n", exp.Path)
	fmt.Println("kind      max-len  query-time  asr-rows")
	for _, r := range exp.Rows {
		fmt.Printf("%-9s %7d  %10v  %8d\n", r.Kind, r.MaxLen, r.Time, r.ASRRows)
	}
	return nil
}

func runAnnot(p scaleParams) error {
	fmt.Println("Annotation-computation overhead (Section 6.1.2 observation)")
	row, err := workload.RunAnnotationOverhead(workload.Config{
		Topology: workload.Chain, Profile: workload.ProfileLinear,
		NumPeers: p.fig9Peers, DataPeers: workload.UpstreamDataPeers(p.fig9Peers, p.scaleData),
		BaseSize: p.asrBase / 2, Seed: p.seed,
	}, p.runs)
	if err != nil {
		return err
	}
	fmt.Printf("graph projection only: %v\n", row.ProjectionTime)
	fmt.Printf("projection + TRUST:    %v\n", row.AnnotatedTime)
	ratio := float64(row.AnnotatedTime) / float64(row.ProjectionTime)
	fmt.Printf("ratio: %.2fx\n", ratio)
	return nil
}
