// Command benchgate is the CI perf-trajectory gate: it compares a
// fresh proqlbench -json run against a checked-in baseline and exits
// non-zero when any metric regressed by more than the allowed factor.
// It also fails when the current run silently dropped an experiment,
// row, or metric the baseline covers, so the trajectory can only grow.
//
// The baseline is recorded on whatever machine cut the PR, while the
// gate runs on a CI runner of unknown speed — absolute wall-clock
// comparisons would fail on hardware, not code. Latency metrics are
// therefore gated on their share of the same row's rebuild_ns (the
// from-scratch re-exchange arm every experiment carries): a uniform
// machine slowdown cancels out, while an incremental path regressing
// relative to the rebuild arm is exactly the signal the trajectory
// exists to catch. rebuild_ns itself is the normalizer and is
// reported but not gated; deterministic counters (visited tuples,
// delta derivations) are gated strictly on their absolute values.
//
// Usage:
//
//	benchgate -baseline BENCH_baseline.json -current BENCH_pr5.json -factor 2
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// benchFile mirrors proqlbench's -json output loosely: each experiment
// is a list of rows keyed by "peers", every other numeric field is a
// gated metric.
type benchFile struct {
	Schema string                   `json:"schema"`
	Scale  string                   `json:"scale"`
	Del    []map[string]json.Number `json:"del"`
	Ins    []map[string]json.Number `json:"ins"`
	Mix    []map[string]json.Number `json:"mix"`
	Proql  []map[string]json.Number `json:"proql"`
	// Serve rows mix a string metric (backend) with numbers, so they
	// decode as any; load uses UseNumber so numeric values still carry
	// full precision as json.Number.
	Serve   []map[string]any         `json:"serve"`
	Recover []map[string]json.Number `json:"recover"`
	Asof    []map[string]json.Number `json:"asof"`
}

func load(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// ungated metrics: row identity and instance size (growth there is a
// workload-scale change, not a perf regression). The serve sweep adds
// backend/readers (row identity), commits and elapsed_ns (both scale
// with runner speed — a faster writer commits more, which is not a
// regression), and max_ns (a single-sample tail too noisy to gate;
// p99_ns carries the tail signal). The asof sweep adds depth (row
// identity) and floor_epoch (an absolute epoch number fixed by the
// deterministic churn; window_epochs carries the same signal as a
// gated counter).
var ungated = map[string]bool{
	"peers": true, "scale": true, "instance_rows": true,
	"backend": true, "readers": true, "commits": true, "elapsed_ns": true, "max_ns": true,
	"depth": true, "floor_epoch": true,
}

func main() {
	var (
		baselinePath = flag.String("baseline", "BENCH_baseline.json", "checked-in baseline JSON")
		currentPath  = flag.String("current", "", "fresh proqlbench -json output")
		factor       = flag.Float64("factor", 2.0, "maximum allowed current/baseline ratio per metric (latency metrics compare rebuild-normalized shares, counters absolute values)")
		serveFactor  = flag.Float64("serve-factor", 5.0, "maximum allowed current/baseline ratio for the serve experiment's p50 contention shares (p50 as a multiple of the row's solo p50); looser than -factor because contention depends on the runner's core count and scheduler")
		serveP99Cap  = flag.Float64("serve-p99-cap", 100.0, "absolute ceiling on the serve experiment's p99 contention share (p99 as a multiple of the same row's solo p50). The tail is gated against this cap rather than the baseline: per-row p99 rests on few samples, so a cross-run ratio of two noisy tails flakes, while 'reads stay within Nx of the uncontended median even under churn' is the bound the experiment exists to enforce")
		recoverCap   = flag.Float64("recover-cap", 0.2, "absolute ceiling on the recover experiment's restart share (recover_ns as a fraction of the same row's cold_ns). The durable-restart claim is that checkpoint + WAL replay beats the cold full exchange by at least 1/cap (5x at the default); the share is a within-run ratio, so runner speed cancels and the cap gates the claim itself, not the clock")
		floorNS      = flag.Float64("floor-ns", 5_000_000, "latency metrics whose current value is below this many ns are exempt from the ratio gate (timings this small are dominated by scheduler/GC pauses on a shared runner; a real blow-up — an incremental path degenerating to rebuild scale — crosses the floor). Counters are always gated strictly")
	)
	flag.Parse()
	if *currentPath == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -current is required")
		os.Exit(2)
	}
	base, err := load(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	cur, err := load(*currentPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	if base.Scale != cur.Scale {
		fmt.Fprintf(os.Stderr, "benchgate: scale mismatch: baseline %s vs current %s\n", base.Scale, cur.Scale)
		os.Exit(1)
	}
	failures := 0
	for _, exp := range []struct {
		name      string
		base, cur []map[string]json.Number
	}{
		{"del", base.Del, cur.Del},
		{"ins", base.Ins, cur.Ins},
		{"mix", base.Mix, cur.Mix},
	} {
		failures += gateExperiment(exp.name, exp.base, exp.cur, *factor, *floorNS)
	}
	failures += gateProQL(base.Proql, cur.Proql, *factor, *floorNS)
	failures += gateServe(base.Serve, cur.Serve, *serveFactor, *serveP99Cap, *floorNS)
	failures += gateRecover(base.Recover, cur.Recover, *factor, *recoverCap)
	failures += gateAsOf(base.Asof, cur.Asof, *factor, *floorNS)
	if failures > 0 {
		fmt.Printf("benchgate: FAIL — %d regression(s) beyond %.1fx\n", failures, *factor)
		os.Exit(1)
	}
	fmt.Printf("benchgate: OK — no metric regressed beyond %.1fx of %s\n", *factor, *baselinePath)
}

func gateExperiment(name string, base, cur []map[string]json.Number, factor, floorNS float64) int {
	if len(base) == 0 {
		return 0
	}
	curByPeers := make(map[string]map[string]json.Number, len(cur))
	for _, row := range cur {
		curByPeers[string(row["peers"])] = row
	}
	failures := 0
	for _, brow := range base {
		peers := string(brow["peers"])
		crow, ok := curByPeers[peers]
		if !ok {
			fmt.Printf("%s[peers=%s]: row missing from current run\n", name, peers)
			failures++
			continue
		}
		for _, metric := range sortedKeys(brow) {
			if ungated[metric] {
				continue
			}
			bv, err1 := brow[metric].Float64()
			cnum, present := crow[metric]
			if !present {
				fmt.Printf("%s[peers=%s].%s: metric missing from current run\n", name, peers, metric)
				failures++
				continue
			}
			cv, err2 := cnum.Float64()
			if err1 != nil || err2 != nil {
				fmt.Printf("%s[peers=%s].%s: non-numeric metric\n", name, peers, metric)
				failures++
				continue
			}
			isLatency := strings.HasSuffix(metric, "_ns")
			// Latencies are compared as shares of the same row's
			// rebuild arm, so the gate measures the code's incremental
			// advantage rather than the runner's clock speed. The
			// normalizer itself is informational only.
			gb, gc := bv, cv
			note := ""
			if metric == "rebuild_ns" {
				fmt.Printf("%s[peers=%s].%-22s %14.0f -> %14.0f  (%.2fx) normalizer (not gated)\n",
					name, peers, metric, bv, cv, ratioOf(bv, cv, factor))
				continue
			}
			if isLatency {
				br, berr := brow["rebuild_ns"].Float64()
				cr, cerr := crow["rebuild_ns"].Float64()
				if berr == nil && cerr == nil && br > 0 && cr > 0 {
					gb, gc = bv/br, cv/cr
					note = " of rebuild"
				}
			}
			ratio := ratioOf(gb, gc, factor)
			status := "ok"
			switch {
			case ratio <= factor:
			case isLatency && cv < floorNS:
				status = "ok (below noise floor)"
			default:
				status = "REGRESSED"
				failures++
			}
			fmt.Printf("%s[peers=%s].%-22s %14.0f -> %14.0f  (%.2fx%s) %s\n",
				name, peers, metric, bv, cv, ratio, note, status)
		}
	}
	return failures
}

// gateProQL gates the E14 backend sweep. Rows are keyed by "scale" and
// the path executor's latencies (graph_eval_ns and the asr_* keys) are
// normalized within each row against the same file's graph_build_ns:
// the cost of materializing the whole provenance graph from the same
// instance, which no path executor change moves. The gated quantity is
// the path executor's share of it, so runner speed cancels;
// graph_build_ns itself is the normalizer and is reported ungated.
// graph_builds is deterministic and gated strictly: it must stay 0.
func gateProQL(base, cur []map[string]json.Number, factor, floorNS float64) int {
	if len(base) == 0 {
		return 0
	}
	curByScale := make(map[string]map[string]json.Number, len(cur))
	for _, row := range cur {
		curByScale[string(row["scale"])] = row
	}
	graphBuild := func(row map[string]json.Number) float64 {
		b, err := row["graph_build_ns"].Float64()
		if err != nil {
			return 0
		}
		return b
	}
	failures := 0
	for _, brow := range base {
		scale := string(brow["scale"])
		crow, ok := curByScale[scale]
		if !ok {
			fmt.Printf("proql[scale=%s]: row missing from current run\n", scale)
			failures++
			continue
		}
		bnorm, cnorm := graphBuild(brow), graphBuild(crow)
		for _, metric := range sortedKeys(brow) {
			if ungated[metric] {
				continue
			}
			bv, err1 := brow[metric].Float64()
			cnum, present := crow[metric]
			if !present {
				fmt.Printf("proql[scale=%s].%s: metric missing from current run\n", scale, metric)
				failures++
				continue
			}
			cv, err2 := cnum.Float64()
			if err1 != nil || err2 != nil {
				fmt.Printf("proql[scale=%s].%s: non-numeric metric\n", scale, metric)
				failures++
				continue
			}
			isLatency := strings.HasSuffix(metric, "_ns")
			if metric == "graph_build_ns" {
				fmt.Printf("proql[scale=%s].%-22s %14.0f -> %14.0f  (%.2fx) normalizer (not gated)\n",
					scale, metric, bv, cv, ratioOf(bv, cv, factor))
				continue
			}
			gb, gc := bv, cv
			note := ""
			if isLatency && bnorm > 0 && cnorm > 0 {
				gb, gc = bv/bnorm, cv/cnorm
				note = " of graph build"
			}
			ratio := ratioOf(gb, gc, factor)
			status := "ok"
			switch {
			case ratio <= factor:
			case isLatency && cv < floorNS:
				status = "ok (below noise floor)"
			default:
				status = "REGRESSED"
				failures++
			}
			fmt.Printf("proql[scale=%s].%-22s %14.0f -> %14.0f  (%.2fx%s) %s\n",
				scale, metric, bv, cv, ratio, note, status)
		}
	}
	return failures
}

// gateServe gates the E15 concurrent-serving sweep. Rows are keyed by
// backend and reader count; latencies are normalized within each row
// against the same file's solo_p50_ns (the query measured serially on
// the quiescent system), so the gated quantity is the contention
// overhead the snapshot layer imposes — what this experiment exists
// to bound — rather than the runner's clock. p50 shares are gated
// against the baseline's shares (factor); the p99 share is gated
// against the absolute p99Cap, because the tail of a small sample is
// too noisy for a ratio of two of them. solo_p50_ns itself is the
// normalizer, reported ungated. errors is a correctness counter gated
// strictly: any nonzero value means a read failed under churn.
func gateServe(base, cur []map[string]any, factor, p99Cap, floorNS float64) int {
	if len(base) == 0 {
		return 0
	}
	num := func(row map[string]any, metric string) (float64, bool) {
		n, ok := row[metric].(json.Number)
		if !ok {
			return 0, false
		}
		v, err := n.Float64()
		return v, err == nil
	}
	key := func(row map[string]any) string {
		return fmt.Sprintf("%v/%v", row["backend"], row["readers"])
	}
	curByKey := make(map[string]map[string]any, len(cur))
	for _, row := range cur {
		curByKey[key(row)] = row
	}
	failures := 0
	for _, brow := range base {
		k := key(brow)
		crow, ok := curByKey[k]
		if !ok {
			fmt.Printf("serve[%s]: row missing from current run\n", k)
			failures++
			continue
		}
		keys := make([]string, 0, len(brow))
		for mk := range brow {
			keys = append(keys, mk)
		}
		sort.Strings(keys)
		for _, metric := range keys {
			if ungated[metric] {
				continue
			}
			bv, ok1 := num(brow, metric)
			if _, present := crow[metric]; !present {
				fmt.Printf("serve[%s].%s: metric missing from current run\n", k, metric)
				failures++
				continue
			}
			cv, ok2 := num(crow, metric)
			if !ok1 || !ok2 {
				fmt.Printf("serve[%s].%s: non-numeric metric\n", k, metric)
				failures++
				continue
			}
			if metric == "errors" {
				status := "ok"
				if cv != 0 {
					status = "REGRESSED (reads failed under churn)"
					failures++
				}
				fmt.Printf("serve[%s].%-22s %14.0f -> %14.0f  %s\n", k, metric, bv, cv, status)
				continue
			}
			isLatency := strings.HasSuffix(metric, "_ns")
			if metric == "solo_p50_ns" {
				fmt.Printf("serve[%s].%-22s %14.0f -> %14.0f  (%.2fx) normalizer (not gated)\n",
					k, metric, bv, cv, ratioOf(bv, cv, factor))
				continue
			}
			gb, gc := bv, cv
			note := ""
			if isLatency {
				bn, bok := num(brow, "solo_p50_ns")
				cn, cok := num(crow, "solo_p50_ns")
				if bok && cok && bn > 0 && cn > 0 {
					gb, gc = bv/bn, cv/cn
					note = " of solo p50"
				}
			}
			if metric == "p99_ns" {
				// The tail of a per-row sample rests on a handful of
				// observations, so a ratio of two p99s flakes on
				// scheduler noise. Gate the current tail's share of
				// its own solo p50 against the absolute cap instead:
				// that is the bound E15 exists to enforce.
				status := "ok"
				switch {
				case gc <= p99Cap:
				case cv < floorNS:
					status = "ok (below noise floor)"
				default:
					status = "REGRESSED"
					failures++
				}
				fmt.Printf("serve[%s].%-22s %14.0f -> %14.0f  (%.2fx%s, cap %.0fx) %s\n",
					k, metric, bv, cv, gc, note, p99Cap, status)
				continue
			}
			ratio := ratioOf(gb, gc, factor)
			status := "ok"
			switch {
			case ratio <= factor:
			case isLatency && cv < floorNS:
				status = "ok (below noise floor)"
			default:
				status = "REGRESSED"
				failures++
			}
			fmt.Printf("serve[%s].%-22s %14.0f -> %14.0f  (%.2fx%s) %s\n",
				k, metric, bv, cv, ratio, note, status)
		}
	}
	return failures
}

// gateRecover gates the E16 durable-restart sweep. Rows are keyed by
// peers; recover_ns is normalized within each row against the same
// file's cold_ns (the cold full re-exchange of the identical final
// state, churn included), so the gated quantity is the restart share
// — the fraction of a cold start a durable restart costs. The share
// is gated twice: against the baseline's share by factor (the restart
// path must not lose ground), and against the absolute recoverCap
// (the O(changed-rows) restart claim: recovery at least 1/cap times
// faster than cold). cold_ns is the normalizer, reported ungated;
// replay_batches is deterministic and gated strictly. No noise-floor
// exemption applies — the share is a within-run ratio, so a slow
// runner inflates both arms alike.
func gateRecover(base, cur []map[string]json.Number, factor, shareCap float64) int {
	if len(base) == 0 {
		return 0
	}
	curByPeers := make(map[string]map[string]json.Number, len(cur))
	for _, row := range cur {
		curByPeers[string(row["peers"])] = row
	}
	failures := 0
	for _, brow := range base {
		peers := string(brow["peers"])
		crow, ok := curByPeers[peers]
		if !ok {
			fmt.Printf("recover[peers=%s]: row missing from current run\n", peers)
			failures++
			continue
		}
		for _, metric := range sortedKeys(brow) {
			if ungated[metric] {
				continue
			}
			bv, err1 := brow[metric].Float64()
			cnum, present := crow[metric]
			if !present {
				fmt.Printf("recover[peers=%s].%s: metric missing from current run\n", peers, metric)
				failures++
				continue
			}
			cv, err2 := cnum.Float64()
			if err1 != nil || err2 != nil {
				fmt.Printf("recover[peers=%s].%s: non-numeric metric\n", peers, metric)
				failures++
				continue
			}
			if metric == "cold_ns" {
				fmt.Printf("recover[peers=%s].%-22s %14.0f -> %14.0f  (%.2fx) normalizer (not gated)\n",
					peers, metric, bv, cv, ratioOf(bv, cv, factor))
				continue
			}
			if metric == "recover_ns" {
				br, berr := brow["cold_ns"].Float64()
				cr, cerr := crow["cold_ns"].Float64()
				if berr != nil || cerr != nil || br <= 0 || cr <= 0 {
					fmt.Printf("recover[peers=%s].%s: missing cold_ns normalizer\n", peers, metric)
					failures++
					continue
				}
				gb, gc := bv/br, cv/cr
				ratio := ratioOf(gb, gc, factor)
				status := "ok"
				if ratio > factor || gc > shareCap {
					status = "REGRESSED"
					failures++
				}
				fmt.Printf("recover[peers=%s].%-22s %14.0f -> %14.0f  (%.2fx of cold, share %.3f, cap %.3f) %s\n",
					peers, metric, bv, cv, ratio, gc, shareCap, status)
				continue
			}
			ratio := ratioOf(bv, cv, factor)
			status := "ok"
			if ratio > factor {
				status = "REGRESSED"
				failures++
			}
			fmt.Printf("recover[peers=%s].%-22s %14.0f -> %14.0f  (%.2fx) %s\n",
				peers, metric, bv, cv, ratio, status)
		}
	}
	return failures
}

// gateAsOf gates the E17 time-travel sweep. Rows are keyed by depth;
// asof_ns is normalized within each row against the same file's
// live_ns (the identical query answered at the newest epoch), so the
// gated quantity is the time-travel overhead — the price of pinning a
// historical snapshot instead of the live heads — and runner speed
// cancels. live_ns is the normalizer, reported ungated. The history
// counters are deterministic given the seeded churn and gated on
// exact equality: retained_versions is the memory the horizon costs
// and window_epochs the epochs it answers for — either drifting means
// the retention sweep changed behavior, not that the runner was slow.
// The share keeps the noise-floor exemption: both arms are
// single-query latencies small enough for a scheduler pause to move
// one of them severalfold, unlike recover's within-run ratio of two
// long arms.
func gateAsOf(base, cur []map[string]json.Number, factor, floorNS float64) int {
	if len(base) == 0 {
		return 0
	}
	curByDepth := make(map[string]map[string]json.Number, len(cur))
	for _, row := range cur {
		curByDepth[string(row["depth"])] = row
	}
	failures := 0
	for _, brow := range base {
		depth := string(brow["depth"])
		crow, ok := curByDepth[depth]
		if !ok {
			fmt.Printf("asof[depth=%s]: row missing from current run\n", depth)
			failures++
			continue
		}
		for _, metric := range sortedKeys(brow) {
			if ungated[metric] {
				continue
			}
			bv, err1 := brow[metric].Float64()
			cnum, present := crow[metric]
			if !present {
				fmt.Printf("asof[depth=%s].%s: metric missing from current run\n", depth, metric)
				failures++
				continue
			}
			cv, err2 := cnum.Float64()
			if err1 != nil || err2 != nil {
				fmt.Printf("asof[depth=%s].%s: non-numeric metric\n", depth, metric)
				failures++
				continue
			}
			if metric == "live_ns" {
				fmt.Printf("asof[depth=%s].%-22s %14.0f -> %14.0f  (%.2fx) normalizer (not gated)\n",
					depth, metric, bv, cv, ratioOf(bv, cv, factor))
				continue
			}
			if metric == "asof_ns" {
				bl, berr := brow["live_ns"].Float64()
				cl, cerr := crow["live_ns"].Float64()
				if berr != nil || cerr != nil || bl <= 0 || cl <= 0 {
					fmt.Printf("asof[depth=%s].%s: missing live_ns normalizer\n", depth, metric)
					failures++
					continue
				}
				gb, gc := bv/bl, cv/cl
				ratio := ratioOf(gb, gc, factor)
				status := "ok"
				switch {
				case ratio <= factor:
				case cv < floorNS:
					status = "ok (below noise floor)"
				default:
					status = "REGRESSED"
					failures++
				}
				fmt.Printf("asof[depth=%s].%-22s %14.0f -> %14.0f  (%.2fx of live, share %.2f) %s\n",
					depth, metric, bv, cv, ratio, gc, status)
				continue
			}
			// retained_versions, window_epochs: deterministic history
			// counters, held exactly.
			status := "ok"
			if cv != bv {
				status = "REGRESSED (history counter drifted)"
				failures++
			}
			fmt.Printf("asof[depth=%s].%-22s %14.0f -> %14.0f  %s\n", depth, metric, bv, cv, status)
		}
	}
	return failures
}

// ratioOf is current/baseline with a zero-baseline guard (a value
// appearing where the baseline had none counts as a regression).
func ratioOf(base, cur, factor float64) float64 {
	if base > 0 {
		return cur / base
	}
	if cur > 0 {
		return factor + 1
	}
	return 1
}

func sortedKeys(m map[string]json.Number) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
