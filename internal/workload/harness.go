package workload

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/asr"
	"repro/internal/fixture"
	"repro/internal/model"
	"repro/internal/proql"
	"repro/internal/provgraph"
)

// Runs is the measurement protocol of Section 6.1.3: each experiment
// is repeated, the best and worst results are discarded, and the rest
// averaged. The paper used 7 runs; harness callers can lower it for
// quick sweeps.
const Runs = 7

// relational pins the relational backend, for the harnesses that
// measure the paper's translation (Figs. 7–13, annotation overhead):
// auto runs whole-relation reads on asr.
var relational = proql.Options{Backend: "relational"}

// timed measures fn with the discard-extremes-and-average protocol.
func timed(runs int, fn func() error) (time.Duration, error) {
	if runs < 3 {
		runs = 3
	}
	samples := make([]time.Duration, 0, runs)
	for i := 0; i < runs; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		samples = append(samples, time.Since(start))
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	samples = samples[1 : len(samples)-1]
	var total time.Duration
	for _, s := range samples {
		total += s
	}
	return total / time.Duration(len(samples)), nil
}

// timedWith measures fn under the same protocol as timed, but runs
// the closure fn returns off the clock after each sample: experiments
// that open a system time the operation itself, with verification and
// teardown between samples excluded from the measurement (on both
// sides of a comparison, so neither arm is penalized).
func timedWith(runs int, fn func() (func() error, error)) (time.Duration, error) {
	if runs < 3 {
		runs = 3
	}
	samples := make([]time.Duration, 0, runs)
	for i := 0; i < runs; i++ {
		start := time.Now()
		after, err := fn()
		d := time.Since(start)
		if err != nil {
			return 0, err
		}
		if after != nil {
			if err := after(); err != nil {
				return 0, err
			}
		}
		samples = append(samples, d)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	samples = samples[1 : len(samples)-1]
	var total time.Duration
	for _, s := range samples {
		total += s
	}
	return total / time.Duration(len(samples)), nil
}

// UnfoldStatsRow is one point of Figures 7 and 8: the unfolded-rule
// count and the unfolding/evaluation time split of the target query's
// first execution on a fresh engine: UnfoldTime is the unfolding
// itself plus planning every unfolded rule.
type UnfoldStatsRow struct {
	X             int // number of peers (Fig 7) or peers with data (Fig 8)
	UnfoldedRules int
	UnfoldTime    time.Duration
	EvalTime      time.Duration
}

// RunFig7 reproduces Figure 7: chain topology, data at every peer,
// sweeping the number of peers; fan profile so the unfolding must
// cover all derivation combinations.
func RunFig7(peerCounts []int, baseSize int, seed int64) ([]UnfoldStatsRow, error) {
	var out []UnfoldStatsRow
	for _, n := range peerCounts {
		set, err := Build(Config{
			Topology:  Chain,
			Profile:   ProfileFan,
			NumPeers:  n,
			DataPeers: AllDataPeers(n),
			BaseSize:  baseSize,
			Seed:      seed,
		})
		if err != nil {
			return nil, err
		}
		row, err := measureTarget(set, n)
		if err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, nil
}

// RunFig8 reproduces Figure 8: fixed-length chain, sweeping the number
// of peers with local data.
func RunFig8(numPeers int, dataCounts []int, baseSize int, seed int64) ([]UnfoldStatsRow, error) {
	var out []UnfoldStatsRow
	for _, d := range dataCounts {
		set, err := Build(Config{
			Topology:  Chain,
			Profile:   ProfileFan,
			NumPeers:  numPeers,
			DataPeers: DownstreamDataPeers(numPeers, d),
			BaseSize:  baseSize,
			Seed:      seed,
		})
		if err != nil {
			return nil, err
		}
		row, err := measureTarget(set, d)
		if err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, nil
}

func measureTarget(set *Setting, x int) (UnfoldStatsRow, error) {
	q, err := proql.Parse(set.TargetQuery())
	if err != nil {
		return UnfoldStatsRow{}, err
	}
	eng := proql.NewEngine(set.Sys)
	res, err := eng.Exec(context.Background(), q, relational)
	if err != nil {
		return UnfoldStatsRow{}, err
	}
	return UnfoldStatsRow{
		X:             x,
		UnfoldedRules: res.Stats.UnfoldedRules,
		UnfoldTime:    res.Stats.UnfoldTime,
		EvalTime:      res.Stats.EvalTime,
	}, nil
}

// ScaleRow is one point of Figures 9 and 10: query processing time and
// instance size for chain and branched topologies.
type ScaleRow struct {
	X            int // base size (Fig 9) or number of peers (Fig 10)
	ChainTime    time.Duration
	BranchedTime time.Duration
	ChainSize    int
	BranchedSize int
}

// RunFig9 reproduces Figure 9: 20-peer chain and branched topologies,
// few upstream data peers, sweeping the base size.
func RunFig9(numPeers, dataPeers int, baseSizes []int, runs int, seed int64) ([]ScaleRow, error) {
	var out []ScaleRow
	for _, base := range baseSizes {
		row := ScaleRow{X: base}
		if err := fillScaleRow(&row, numPeers, dataPeers, base, runs, seed); err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, nil
}

// RunFig10 reproduces Figure 10: fixed base size, sweeping the number
// of peers.
func RunFig10(peerCounts []int, dataPeers, baseSize int, runs int, seed int64) ([]ScaleRow, error) {
	var out []ScaleRow
	for _, n := range peerCounts {
		row := ScaleRow{X: n}
		if err := fillScaleRow(&row, n, dataPeers, baseSize, runs, seed); err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, nil
}

func fillScaleRow(row *ScaleRow, numPeers, dataPeers, base, runs int, seed int64) error {
	for _, topo := range []Topology{Chain, Branched} {
		set, err := Build(Config{
			Topology:  topo,
			Profile:   ProfileLinear,
			NumPeers:  numPeers,
			DataPeers: UpstreamDataPeers(numPeers, dataPeers),
			BaseSize:  base,
			Seed:      seed,
		})
		if err != nil {
			return err
		}
		eng := proql.NewEngine(set.Sys)
		q, err := proql.Parse(set.TargetQuery())
		if err != nil {
			return err
		}
		dur, err := timed(runs, func() error {
			_, err := eng.Exec(context.Background(), q, relational)
			return err
		})
		if err != nil {
			return err
		}
		if topo == Chain {
			row.ChainTime = dur
			row.ChainSize = set.InstanceSize()
		} else {
			row.BranchedTime = dur
			row.BranchedSize = set.InstanceSize()
		}
	}
	return nil
}

// ASRRow is one point of Figures 11–13: total query processing time
// for one ASR kind at one maximum path length.
type ASRRow struct {
	Kind    asr.Kind
	MaxLen  int
	Time    time.Duration
	ASRRows int // materialized index size
}

// ASRExperiment holds a setting plus its no-ASR baselines: the
// relational translation the ASRs rewrite, and the path executor,
// which reads no ASR.
type ASRExperiment struct {
	Setting  *Setting
	Baseline time.Duration
	Path     time.Duration
	Rows     []ASRRow
}

// RunASRSweep reproduces the shape of Figures 11, 12, and 13: build
// the given setting, measure the no-ASR baselines for the target query
// (relational and path), then for every ASR kind and maximum path
// length split the topology's mapping chains into segments, materialize
// the ASRs, and re-measure on the translation.
func RunASRSweep(cfg Config, maxLens []int, kinds []asr.Kind, runs int) (*ASRExperiment, error) {
	set, err := Build(cfg)
	if err != nil {
		return nil, err
	}
	exp := &ASRExperiment{Setting: set}
	eng := proql.NewEngine(set.Sys)
	q, err := proql.Parse(set.TargetQuery())
	if err != nil {
		return nil, err
	}
	exp.Baseline, err = timed(runs, func() error {
		_, err := eng.Exec(context.Background(), q, relational)
		return err
	})
	if err != nil {
		return nil, err
	}
	exp.Path, err = timed(runs, func() error {
		_, err := eng.Exec(context.Background(), q, proql.Options{Backend: "path"})
		return err
	})
	if err != nil {
		return nil, err
	}
	chains := set.AChains()
	for _, kind := range kinds {
		for _, maxLen := range maxLens {
			ix := asr.NewIndex(set.Sys)
			for _, chain := range chains {
				for _, seg := range SplitChain(chain, maxLen) {
					if _, err := ix.Define(kind, seg...); err != nil {
						return nil, fmt.Errorf("define %v over %v: %w", kind, seg, err)
					}
				}
			}
			if err := ix.Materialize(); err != nil {
				return nil, err
			}
			eng.RewriteRules = ix.RewriteRules
			dur, err := timed(runs, func() error {
				_, err := eng.Exec(context.Background(), q, relational)
				return err
			})
			if err != nil {
				return nil, err
			}
			exp.Rows = append(exp.Rows, ASRRow{
				Kind:    kind,
				MaxLen:  maxLen,
				Time:    dur,
				ASRRows: ix.TotalRows(),
			})
			eng.RewriteRules = nil
			ix.DropAll()
		}
	}
	return exp, nil
}

// DeletionRow is one point of the use-case-Q5 experiment: the time to
// propagate one base-tuple deletion with the delta-driven propagator
// (a walk over the provenance tables) and by rebuilding the exchange
// from scratch, plus
// the size of the affected subgraph the delta walk visited versus the
// instance size.
type DeletionRow struct {
	Peers              int
	MaintainTime       time.Duration
	RebuildTime        time.Duration
	TuplesVisited      int
	DerivationsVisited int
	InstanceSize       int
}

// RunDeletion measures incremental deletion at Fig.-10-style scales:
// a chain of n peers with data at the far end, deleting one base tuple
// of the top peer so the whole propagation chain is affected. Each run
// deletes a different key, so every measurement does the same amount
// of work on a warm system.
func RunDeletion(peerCounts []int, dataPeers, baseSize, runs int, seed int64) ([]DeletionRow, error) {
	var out []DeletionRow
	for _, n := range peerCounts {
		cfg := Config{
			Topology:  Chain,
			Profile:   ProfileLinear,
			NumPeers:  n,
			DataPeers: UpstreamDataPeers(n, dataPeers),
			BaseSize:  baseSize,
			Seed:      seed,
		}
		row := DeletionRow{Peers: n}
		src := n - 1
		key := func(i int) []model.Datum {
			return []model.Datum{int64(src)*10_000_000 + int64(i%baseSize)}
		}

		set, err := Build(cfg)
		if err != nil {
			return nil, err
		}
		row.InstanceSize = set.InstanceSize()
		i := 0
		row.MaintainTime, err = timed(runs, func() error {
			rep, err := set.Sys.DeleteLocal(ARel(src), key(i))
			i++
			if rep != nil {
				row.TuplesVisited = rep.TuplesVisited
				row.DerivationsVisited = rep.DerivationsVisited
			}
			return err
		})
		if err != nil {
			return nil, err
		}

		row.RebuildTime, err = timed(runs, func() error {
			_, err := Build(cfg)
			return err
		})
		if err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, nil
}

// InsertionRow is one point of the incremental-insertion experiment:
// the time to propagate a small batch of new base tuples with the
// Δ-seeded RunDelta, with a full re-run of the compiled fixpoint, and
// by rebuilding the exchange from scratch, plus the derivations the
// delta run enumerated versus the instance size.
type InsertionRow struct {
	Peers            int
	DeltaTime        time.Duration
	FullRerunTime    time.Duration
	RebuildTime      time.Duration
	DeltaDerivations int
	InstanceSize     int
}

// RunInsertion measures incremental insertion at Fig.-10-style scales:
// a chain of n peers with data at the far end, inserting batch fresh
// base tuples at the top peer so the whole propagation chain extends.
// Each run inserts different keys, so every measurement does the same
// amount of work on a warm system.
func RunInsertion(peerCounts []int, dataPeers, baseSize, batch, runs int, seed int64) ([]InsertionRow, error) {
	var out []InsertionRow
	for _, n := range peerCounts {
		cfg := Config{
			Topology:   Chain,
			Profile:    ProfileLinear,
			NumPeers:   n,
			DataPeers:  UpstreamDataPeers(n, dataPeers),
			BaseSize:   baseSize,
			Categories: 16,
			Seed:       seed,
		}
		row := InsertionRow{Peers: n}
		src := n - 1
		var next int64
		newRows := func() []model.Tuple {
			rows := make([]model.Tuple, batch)
			for j := range rows {
				k := int64(src)*10_000_000 + int64(baseSize) + next
				next++
				r := model.Tuple{k, k % int64(cfg.Categories)}
				for a := 0; a < 10; a++ {
					r = append(r, k+int64(a))
				}
				rows[j] = r
			}
			return rows
		}

		set, err := Build(cfg)
		if err != nil {
			return nil, err
		}
		row.InstanceSize = set.InstanceSize()
		row.DeltaTime, err = timed(runs, func() error {
			if err := set.Sys.InsertLocal(ARel(src), newRows()...); err != nil {
				return err
			}
			rep, err := set.Sys.RunDelta()
			if rep != nil {
				if rep.Full {
					return fmt.Errorf("workload: delta arm fell back to a full run")
				}
				row.DeltaDerivations = rep.Derivations
			}
			return err
		})
		if err != nil {
			return nil, err
		}

		fullSet, err := Build(cfg)
		if err != nil {
			return nil, err
		}
		next = 0
		row.FullRerunTime, err = timed(runs, func() error {
			if err := fullSet.Sys.InsertLocal(ARel(src), newRows()...); err != nil {
				return err
			}
			return fullSet.Sys.Run()
		})
		if err != nil {
			return nil, err
		}

		row.RebuildTime, err = timed(runs, func() error {
			_, err := Build(cfg)
			return err
		})
		if err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, nil
}

// MixedRow is one point of the interleaved-churn experiment (E12):
// each operation deletes one existing base tuple AND inserts a small
// batch of fresh ones at the far peer, then propagates. The delta arm
// relies on journal repair — DeleteLocal patches the persistent
// engine state, so the following RunDelta stays delta-seeded; the
// full-rerun arm pays a complete fixpoint per operation; the rebuild
// arm re-exchanges from scratch. The ASR columns measure maintaining
// a complete-path ASR over the whole chain under the same churn:
// patched from the insertion/deletion reports versus re-materialized
// per operation.
type MixedRow struct {
	Peers            int
	DeltaTime        time.Duration
	FullRerunTime    time.Duration
	RebuildTime      time.Duration
	DeltaDerivations int
	TuplesVisited    int
	ASRPatchTime     time.Duration
	ASRRematTime     time.Duration
	InstanceSize     int
}

// RunMixed measures interleaved insert/delete churn at Fig.-10-style
// scales: a chain of n peers with data at the far end; every measured
// operation retracts one base tuple and inserts batch fresh ones at
// the top peer, so the whole propagation chain is touched in both
// directions. Deleted keys and inserted keys are distinct across
// iterations, so every measurement does the same amount of work on a
// warm system.
func RunMixed(peerCounts []int, dataPeers, baseSize, batch, runs int, seed int64) ([]MixedRow, error) {
	var out []MixedRow
	for _, n := range peerCounts {
		cfg := Config{
			Topology:   Chain,
			Profile:    ProfileLinear,
			NumPeers:   n,
			DataPeers:  UpstreamDataPeers(n, dataPeers),
			BaseSize:   baseSize,
			Categories: 16,
			Seed:       seed,
		}
		row := MixedRow{Peers: n}
		src := n - 1
		var delNext, insNext int64
		churn := func() (delKey []model.Datum, ins []model.Tuple) {
			delKey = []model.Datum{int64(src)*10_000_000 + delNext%int64(baseSize)}
			delNext++
			ins = make([]model.Tuple, batch)
			for j := range ins {
				k := int64(src)*10_000_000 + int64(baseSize) + insNext
				insNext++
				r := model.Tuple{k, k % int64(cfg.Categories)}
				for a := 0; a < 10; a++ {
					r = append(r, k+int64(a))
				}
				ins[j] = r
			}
			return delKey, ins
		}

		set, err := Build(cfg)
		if err != nil {
			return nil, err
		}
		row.InstanceSize = set.InstanceSize()
		row.DeltaTime, err = timed(runs, func() error {
			delKey, ins := churn()
			rep, err := set.Sys.DeleteLocal(ARel(src), delKey)
			if err != nil {
				return err
			}
			row.TuplesVisited = rep.TuplesVisited
			if err := set.Sys.InsertLocal(ARel(src), ins...); err != nil {
				return err
			}
			irep, err := set.Sys.RunDelta()
			if err != nil {
				return err
			}
			if irep.Full {
				return fmt.Errorf("workload: mixed delta arm fell back to a full run")
			}
			row.DeltaDerivations = irep.Derivations
			return nil
		})
		if err != nil {
			return nil, err
		}

		fullSet, err := Build(cfg)
		if err != nil {
			return nil, err
		}
		delNext, insNext = 0, 0
		row.FullRerunTime, err = timed(runs, func() error {
			delKey, ins := churn()
			if _, err := fullSet.Sys.DeleteLocal(ARel(src), delKey); err != nil {
				return err
			}
			if err := fullSet.Sys.InsertLocal(ARel(src), ins...); err != nil {
				return err
			}
			return fullSet.Sys.Run()
		})
		if err != nil {
			return nil, err
		}

		row.RebuildTime, err = timed(runs, func() error {
			_, err := Build(cfg)
			return err
		})
		if err != nil {
			return nil, err
		}

		// ASR maintenance under the same churn: a complete-path ASR
		// over the whole A-chain, patched from the reports versus
		// re-materialized per operation.
		patchSet, err := Build(cfg)
		if err != nil {
			return nil, err
		}
		chain := patchSet.AChains()[0]
		patchIx := asr.NewIndex(patchSet.Sys)
		if _, err := patchIx.Define(asr.CompletePath, chain...); err != nil {
			return nil, err
		}
		if err := patchIx.Materialize(); err != nil {
			return nil, err
		}
		delNext, insNext = 0, 0
		row.ASRPatchTime, err = timed(runs, func() error {
			delKey, ins := churn()
			rep, err := patchSet.Sys.DeleteLocal(ARel(src), delKey)
			if err != nil {
				return err
			}
			if err := patchIx.ApplyDeletions(rep); err != nil {
				return err
			}
			if err := patchSet.Sys.InsertLocal(ARel(src), ins...); err != nil {
				return err
			}
			irep, err := patchSet.Sys.RunDelta()
			if err != nil {
				return err
			}
			return patchIx.ApplyInsertions(irep)
		})
		if err != nil {
			return nil, err
		}

		rematSet, err := Build(cfg)
		if err != nil {
			return nil, err
		}
		rematIx := asr.NewIndex(rematSet.Sys)
		if _, err := rematIx.Define(asr.CompletePath, chain...); err != nil {
			return nil, err
		}
		if err := rematIx.Materialize(); err != nil {
			return nil, err
		}
		delNext, insNext = 0, 0
		row.ASRRematTime, err = timed(runs, func() error {
			delKey, ins := churn()
			if _, err := rematSet.Sys.DeleteLocal(ARel(src), delKey); err != nil {
				return err
			}
			if err := rematSet.Sys.InsertLocal(ARel(src), ins...); err != nil {
				return err
			}
			if _, err := rematSet.Sys.RunDelta(); err != nil {
				return err
			}
			return rematIx.Materialize()
		})
		if err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, nil
}

// AnnotationOverheadRow compares graph projection alone against
// projection plus annotation computation (Section 6.1.2's observation
// that the projection component dominates).
type AnnotationOverheadRow struct {
	ProjectionTime time.Duration
	AnnotatedTime  time.Duration
}

// RunAnnotationOverhead measures the target query with and without a
// TRUST evaluation over the same setting.
func RunAnnotationOverhead(cfg Config, runs int) (*AnnotationOverheadRow, error) {
	set, err := Build(cfg)
	if err != nil {
		return nil, err
	}
	eng := proql.NewEngine(set.Sys)
	proj, err := proql.Parse(set.TargetQuery())
	if err != nil {
		return nil, err
	}
	annot, err := proql.Parse(set.TargetAnnotationQuery())
	if err != nil {
		return nil, err
	}
	row := &AnnotationOverheadRow{}
	row.ProjectionTime, err = timed(runs, func() error {
		_, err := eng.Exec(context.Background(), proj, relational)
		return err
	})
	if err != nil {
		return nil, err
	}
	row.AnnotatedTime, err = timed(runs, func() error {
		_, err := eng.Exec(context.Background(), annot, relational)
		return err
	})
	if err != nil {
		return nil, err
	}
	return row, nil
}

// Table1Semirings are the semirings of the paper's Table 1, in its
// order (experiment E1).
var Table1Semirings = []string{"DERIVABILITY", "TRUST", "CONFIDENTIALITY", "WEIGHT", "LINEAGE", "PROBABILITY", "COUNT", "POLYNOMIAL"}

// table1Leaves are E1's leaf clauses where a semiring's default
// leaves do not serve: every leaf weighs 1, and the A tuples are
// secret.
var table1Leaves = map[string]string{
	"WEIGHT":          ` ASSIGNING EACH leaf_node $y { DEFAULT : SET 1 }`,
	"CONFIDENTIALITY": ` ASSIGNING EACH leaf_node $y { CASE $y IN A : SET 'secret' DEFAULT : SET 'public' }`,
}

// Table1Query is E1's query for one semiring over the Figure 1
// setting: every O tuple annotated over its whole ancestry.
func Table1Query(semiring string) string {
	return "EVALUATE " + semiring + " OF { FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x }" + table1Leaves[semiring]
}

// RunTable1 runs Table1Query for every Table 1 semiring on one backend
// over the Figure 1 setting and renders each annotation of
// O(cn1,7,true).
func RunTable1(backend string) ([]string, error) {
	sys, err := fixture.System(fixture.Options{})
	if err != nil {
		return nil, err
	}
	eng := proql.NewEngine(sys)
	target := model.RefFromKey("O", []model.Datum{"cn1", int64(7)})
	out := make([]string, len(Table1Semirings))
	for i, name := range Table1Semirings {
		res, err := eng.Eval(context.Background(), proql.MustParse(Table1Query(name)), proql.Options{Backend: backend})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		v, ok := res.Annotations[target]
		if !ok {
			return nil, fmt.Errorf("%s: no annotation of %v", name, target)
		}
		out[i] = res.Semiring.Format(v)
	}
	return out, nil
}

// ProQLRow is one point of the E14 backend sweep: the Q4-shaped
// multi-path common-provenance query evaluated by the goal-directed
// path executor, next to a whole-graph materialization, at one scale
// multiplier of the base setting. The ASR* fields keep the executor's
// former name, which the JSON trajectory's keys carry.
type ProQLRow struct {
	Scale        int
	InstanceSize int
	// GraphBuildTime is a provgraph materialization of a pinned
	// snapshot (the whole graph a client would assemble);
	// GraphEvalTime is the warm per-query evaluation on the path
	// executor, on the engine that built the graph.
	GraphBuildTime time.Duration
	GraphEvalTime  time.Duration
	// ASRFirstTime is the path executor's first evaluation on a fresh
	// engine; ASREvalTime is the repeated evaluation on the same
	// engine, which takes the dense tables the first one shared.
	ASRFirstTime time.Duration
	ASREvalTime  time.Duration
	// GraphBuilds counts provgraph materializations observed during
	// the path arms. The executor's defining invariant is 0.
	GraphBuilds int64
}

// RunProQL sweeps the multi-path provenance query across scale
// multipliers of a chain setting, timing the goal-directed path executor
// (probe the provenance tables directly — no materialization, and a
// join order read from the query syntax) cold and warm against a
// reference arm: materializing the whole provenance graph, plus a warm
// evaluation on the engine that built it.
func RunProQL(scales []int, numPeers, dataPeers, baseSize, runs int, seed int64) ([]ProQLRow, error) {
	var out []ProQLRow
	for _, sc := range scales {
		cfg := Config{
			Topology:  Chain,
			Profile:   ProfileLinear,
			NumPeers:  numPeers,
			DataPeers: UpstreamDataPeers(numPeers, dataPeers),
			BaseSize:  baseSize * sc,
			Seed:      seed,
		}
		set, err := Build(cfg)
		if err != nil {
			return nil, err
		}
		row := ProQLRow{Scale: sc, InstanceSize: set.InstanceSize()}
		q, err := proql.Parse(fmt.Sprintf(
			"FOR [%s $x] <-+ [$z], [%s $y] <-+ [$z] RETURN $x, $y",
			ARel(0), ARel(1)))
		if err != nil {
			return nil, err
		}

		graphEng := proql.NewEngine(set.Sys)
		row.GraphBuildTime, err = timed(runs, func() error {
			_, err := graphEng.Graph()
			return err
		})
		if err != nil {
			return nil, err
		}
		row.GraphEvalTime, err = timed(runs, func() error {
			_, err := graphEng.Exec(context.Background(), q, proql.Options{Backend: "path"})
			return err
		})
		if err != nil {
			return nil, err
		}

		before := provgraph.Builds()
		// Cold arm: a fresh engine per iteration, so every run builds
		// the dense tables a warm engine shares (the discard-extremes
		// protocol tames the noise a single cold measurement carries).
		var asrEng *proql.Engine
		row.ASRFirstTime, err = timed(runs, func() error {
			asrEng = proql.NewEngine(set.Sys)
			_, err := asrEng.Exec(context.Background(), q, proql.Options{Backend: "path"})
			return err
		})
		if err != nil {
			return nil, err
		}
		row.ASREvalTime, err = timed(runs, func() error {
			_, err := asrEng.Exec(context.Background(), q, proql.Options{Backend: "path"})
			return err
		})
		if err != nil {
			return nil, err
		}
		row.GraphBuilds = provgraph.Builds() - before
		out = append(out, row)
	}
	return out, nil
}
