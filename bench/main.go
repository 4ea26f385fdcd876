// Command bench is the repository's one benchmark: a single-process
// closed-loop load generator that builds cmd/proqld, runs it as a child
// process, drives it over HTTP with at most nproc connections, checks
// every answer against an in-process oracle, and prints every metric of
// BENCHMARK.json by name with its unit. See README.md.
//
//	bash bench/run.sh                                   # every workload, untraced and traced
//	bash bench/run.sh --workload point-read --seed 7 --seconds 10 --trace 0
//	bash bench/run.sh -aa                               # A/A: the full set twice, differences against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// manifest is BENCHMARK.json: the names, units and bounds of every
// metric, and the window length.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadManifest(root string) (*manifest, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var mf manifest
	if err := json.Unmarshal(raw, &mf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &mf, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workloadName := fs.String("workload", "", "workload to run (default: all of them)")
	seed := fs.Int64("seed", 1, "seed of the instance and of the request streams")
	seconds := fs.Float64("seconds", 0, "length of the measured window (default: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", -1, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics (default: both)")
	aa := fs.Bool("aa", false, "run every workload twice on the same binary and compare the end-to-end metrics against their bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	e, err := newEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer e.cleanup()
	mf, err := loadManifest(e.root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if *seconds <= 0 {
		*seconds = float64(mf.RunSeconds)
	}
	window := time.Duration(*seconds * float64(time.Second))

	todo := specs
	if *workloadName != "" {
		sp, ok := specByName(*workloadName)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadName)
			return 2
		}
		todo = []spec{sp}
	}
	if *aa {
		return runAA(e, mf, todo, *seed, window, stdout)
	}
	code := 0
	for _, sp := range todo {
		res, err := runWorkload(e, sp, *seed, window, *trace != 0)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", sp.name, err)
			return 1
		}
		defs := mf.EndToEnd
		switch *trace {
		case 1:
			defs = mf.PerLayer
		case -1:
			defs = append(append([]metricDef(nil), mf.EndToEnd...), mf.PerLayer...)
		}
		if err := report(e, stdout, res, defs); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", sp.name, err)
			return 1
		}
		if res.Failed > 0 {
			code = 1
		}
	}
	return code
}

// report prints the metrics by name with their units, writes the result
// file, and ends with the one-line JSON summary.
func report(e *env, stdout io.Writer, res *result, defs []metricDef) error {
	fmt.Fprintf(stdout, "# %s seed=%d samples: query=%.0f insert=%.0f delete=%.0f\n", res.Workload, res.Seed,
		res.Metrics["bench.samples_query"], res.Metrics["bench.samples_insert"], res.Metrics["bench.samples_delete"])
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, def := range defs {
		v, ok := res.Metrics[def.Name]
		if !ok {
			return fmt.Errorf("metric %s of BENCHMARK.json was not measured", def.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", def.Name, v)
		}
		metrics[def.Name] = value{v, def.Unit}
		fmt.Fprintf(stdout, "%-42s %14.4f %s\n", def.Name, v, def.Unit)
	}
	for _, msg := range res.Errors {
		fmt.Fprintln(stdout, "# FAILED:", msg)
	}
	if err := writeResult(e, res); err != nil {
		return err
	}
	line, err := json.Marshal(map[string]any{
		"correct": res.Failed == 0, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}

// writeResult records one invocation under bench/out with the
// environment it ran in.
func writeResult(e *env, res *result) error {
	commit := "unknown"
	git := exec.Command("git", "rev-parse", "HEAD")
	git.Dir = e.root
	if out, err := git.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	// The daemon inherits the environment, so both processes get the
	// same GOMAXPROCS.
	doc := map[string]any{
		"commit": commit, "go": runtime.Version(), "nproc": runtime.NumCPU(),
		"gomaxprocs_generator": runtime.GOMAXPROCS(0), "gomaxprocs_daemon": runtime.GOMAXPROCS(0),
		"time": time.Now().UTC().Format(time.RFC3339), "result": res,
	}
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("result-%s-seed%d-trace%t-%d.json", res.Workload, res.Seed, res.Traced, time.Now().UnixNano())
	return os.WriteFile(filepath.Join(e.out, name), raw, 0o644)
}

// runAA measures every workload twice with the same binary and seed and
// reports, per end-to-end metric, how far the second run is from the
// first against the metric's bound. Any excess, like any failed op, is a
// non-zero exit.
func runAA(e *env, mf *manifest, todo []spec, seed int64, window time.Duration, stdout io.Writer) int {
	code := 0
	for _, sp := range todo {
		var sets [2]*result
		for i := range sets {
			res, err := runWorkload(e, sp, seed, window, false)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", sp.name, err)
				return 1
			}
			if res.Failed > 0 {
				fmt.Fprintf(stdout, "# %s run %d: %d failed ops: %v\n", sp.name, i, res.Failed, res.Errors)
				code = 1
			}
			sets[i] = res
		}
		defs := append([]metricDef(nil), mf.EndToEnd...)
		sort.Slice(defs, func(i, j int) bool { return defs[i].Name < defs[j].Name })
		for _, def := range defs {
			a, b := sets[0].Metrics[def.Name], sets[1].Metrics[def.Name]
			worse := (b - a) / a
			if def.Better == "higher" {
				worse = (a - b) / a
			}
			verdict := "ok"
			if worse > def.Bound {
				verdict = "EXCEEDS BOUND"
				code = 1
			}
			fmt.Fprintf(stdout, "%-14s %-24s %12.4f %12.4f %s  worse by %+.3f (bound %.2f) %s\n",
				sp.name, def.Name, a, b, def.Unit, worse, def.Bound, verdict)
		}
	}
	return code
}
