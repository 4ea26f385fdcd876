package main

import (
	"sort"
	"testing"
	"time"
)

// TestMetricNamesMatchManifest runs a one-second window of a tiny durable
// instance with a writer and a reader — every phase, the crash-restart
// cycles and the traced replay included — and checks that the metrics
// measured are exactly the ones BENCHMARK.json names.
func TestMetricNamesMatchManifest(t *testing.T) {
	if testing.Short() {
		t.Skip("starts proqld; skipped under -short")
	}
	e, err := newEnv()
	if err != nil {
		t.Fatal(err)
	}
	defer e.cleanup()
	mf, err := loadManifest(e.root)
	if err != nil {
		t.Fatal(err)
	}
	tiny := spec{name: "tiny", peers: 4, data: 2, base: 40, durable: true, retain: 64,
		roles: []role{roleWriter, roleChurnReader}, traceRounds: 4}
	res, err := runWorkload(e, tiny, 1, time.Second, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("%d of %d ops failed: %v", res.Failed, res.Attempted, res.Errors)
	}
	want := map[string]bool{}
	for _, def := range append(append([]metricDef(nil), mf.EndToEnd...), mf.PerLayer...) {
		want[def.Name] = true
		if _, ok := res.Metrics[def.Name]; !ok {
			t.Errorf("BENCHMARK.json names %s, which the run did not measure", def.Name)
		}
	}
	var extra []string
	for name := range res.Metrics {
		if !want[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	if len(extra) > 0 {
		t.Errorf("measured but missing from BENCHMARK.json: %v", extra)
	}
	if len(mf.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(mf.Workloads), len(specs))
	}
	for i, w := range mf.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %s, the harness %s", i, w.Name, specs[i].name)
		}
	}
}
