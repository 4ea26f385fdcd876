package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

const (
	// coldStarts fresh daemons are started per run; setup_s is their median.
	coldStarts = 7
	// restarts is the number of SIGKILL → recover cycles after the
	// durable workload's window.
	restarts = 5
	warmUp   = 2 * time.Second
)

// result is everything one run of one workload measured.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
}

func (r *result) fail(format string, args ...any) {
	r.Failed++
	if len(r.Errors) < 10 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// quantile of an ascending slice, by the nearest-rank rule.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runWorkload measures one workload against a real proqld: cold starts,
// warm-up, the window, and for the durable workload the crash-restart
// cycles. With trace set it then replays a prefix of the same request
// streams in-process with a span around every call into a layer.
func runWorkload(e *env, sp spec, seed int64, window time.Duration, trace bool) (*result, error) {
	res := &result{Workload: sp.name, Seed: seed, Traced: trace, Metrics: map[string]float64{}}
	m := res.Metrics

	or, err := buildOracle(sp, seed)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	// The oracle's system is garbage now; return its memory before the
	// daemon and the generator compete for the machine.
	runtime.GC()
	debug.FreeOSMemory()

	var d *daemon
	defer func() {
		if d != nil {
			d.kill()
		}
	}()
	var setups []float64
	var dataDir string
	for i := 0; i < coldStarts; i++ {
		if d != nil {
			d.kill()
			os.RemoveAll(dataDir)
		}
		dataDir = filepath.Join(e.tmp, fmt.Sprintf("%s-data-%d", sp.name, i))
		if d, err = e.startDaemon(sp, seed, dataDir); err != nil {
			return nil, err
		}
		setups = append(setups, d.setup.Seconds())
	}
	m["setup_s"] = median(setups)

	// At most nproc connections: one per client, kept alive.
	hc := &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{
		MaxConnsPerHost: len(sp.roles), MaxIdleConnsPerHost: len(sp.roles)}}
	defer hc.CloseIdleConnections()
	churn := &churnState{}
	var clients []*client
	var writer *client
	for ci, st := range sp.streams(seed, or) {
		c := &client{stream: st, hc: hc, base: d.base, or: or, churn: churn}
		if sp.roles[ci] == roleWriter {
			writer = c
		}
		clients = append(clients, c)
	}

	runPhase(clients, warmUp, 1)
	if sp.durable {
		writer.wal = &walWatch{dir: dataDir} // watches the window's writes only
	}
	st0, err := d.stats(hc)
	if err != nil {
		return nil, err
	}
	ps0, err := d.proc()
	if err != nil {
		return nil, err
	}
	gen0 := selfCPU()
	// The resident set is sampled every 50 ms while the window runs.
	stopRSS := make(chan struct{})
	rssMean := make(chan float64)
	go func() {
		sum, n := d.rssMB(), 1.0
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopRSS:
				rssMean <- sum / n
				return
			case <-tick.C:
				sum, n = sum+d.rssMB(), n+1
			}
		}
	}()
	elapsed := runPhase(clients, window, 1)
	close(stopRSS)
	rss := <-rssMean
	genCPU := selfCPU() - gen0
	ps1, err := d.proc()
	if err != nil {
		return nil, err
	}
	st1, err := d.stats(hc)
	if err != nil {
		return nil, err
	}

	// Pool the window's samples.
	var lat [numClasses][]float64
	var shell, queryLat, respBytes []float64
	okOps := 0
	var rate float64
	var clientOpMS []float64
	for ci, c := range clients {
		ok := 0
		var last time.Duration
		for _, s := range c.samples {
			res.Attempted++
			if !s.ok {
				continue
			}
			ok++
			last = s.end
			rtt := ms(s.end - s.start)
			lat[s.class] = append(lat[s.class], rtt)
			if s.class.isQuery() {
				shell = append(shell, rtt-ms(s.server))
				respBytes = append(respBytes, float64(s.bytes))
				if s.class != cRange {
					queryLat = append(queryLat, rtt)
				}
			}
		}
		if c.firstErr != "" {
			res.fail("client %d: %d failed ops, first: %s", ci, len(c.samples)-ok, c.firstErr)
			res.Failed += len(c.samples) - ok - 1
		}
		okOps += ok
		if last > 0 {
			rate += float64(ok) / last.Seconds()
		}
		// Per-op latency as this caller sees it: the duration of each
		// whole round over the ops in it, median across rounds. A round
		// averages over the rotation, so the statistic is unimodal even
		// where single ops are not.
		var perOp []float64
		rot := c.stream.rot
		for r := 0; (r+1)*rot <= len(c.samples); r++ {
			perOp = append(perOp, ms(c.samples[(r+1)*rot-1].end-c.samples[r*rot].start)/float64(rot))
		}
		clientOpMS = append(clientOpMS, median(perOp))
	}
	if okOps == 0 {
		return nil, fmt.Errorf("no op succeeded: %v", res.Errors)
	}
	for c := range lat {
		sort.Float64s(lat[c])
	}
	sort.Float64s(shell)
	sort.Float64s(queryLat)
	sort.Float64s(clientOpMS)

	m["ops_per_s"] = rate
	m["cpu_ms_per_op"] = ms(ps1.cpu-ps0.cpu) / float64(okOps)
	// The mean over the window, not the peak: VmHWM depends on when one
	// garbage collection happened to start and spreads 25–35 % between
	// identical runs.
	m["rss_mean_mb"] = rss
	m["proqld.rss_peak_mb"] = ps1.hwmMB
	m["op_ms_slowest_client"] = clientOpMS[len(clientOpMS)-1]
	m["op_ms_fastest_client"] = clientOpMS[0]

	m["proqld.query_p50_ms"] = quantile(queryLat, 0.5)
	m["proqld.query_p99_ms"] = quantile(queryLat, 0.99)
	m["proqld.insert_p50_ms"] = quantile(lat[cInsert], 0.5)
	m["proqld.insert_p99_ms"] = quantile(lat[cInsert], 0.99)
	m["proqld.delete_p50_ms"] = quantile(lat[cDelete], 0.5)
	m["proqld.delete_p99_ms"] = quantile(lat[cDelete], 0.99)
	m["proqld.shell_ms"] = quantile(shell, 0.5)
	m["proqld.resp_bytes_per_query"] = median(respBytes)
	m["proqld.rejected"] = float64(st1.Rejected - st0.Rejected)
	m["proqld.timeouts"] = float64(st1.Timeouts - st0.Timeouts)
	m["proqld.query_graph_p50_ms"] = quantile(lat[cGraph], 0.5)
	m["proqld.query_asr_p50_ms"] = quantile(lat[cASR], 0.5)
	m["proqld.query_range_p50_ms"] = quantile(lat[cRange], 0.5)
	m["proqld.shape_target_ms"] = quantile(lat[cTarget], 0.5)
	m["proqld.shape_target_asr_ms"] = quantile(lat[cTargetASR], 0.5)
	m["proqld.shape_trust_ms"] = quantile(lat[cTrust], 0.5)
	m["proqld.shape_multipath_ms"] = quantile(lat[cMultipath], 0.5)
	m["proqld.window_s"] = elapsed.Seconds()
	m["proql.plancache_hit_ratio"] = 0
	if hits, misses := st1.CacheHits-st0.CacheHits, st1.CacheMisses-st0.CacheMisses; hits+misses > 0 {
		m["proql.plancache_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	m["proql.plancache_entries"] = float64(st1.CacheEntries)
	m["relstore.retained_versions"] = float64(st1.RetainedVersions)
	m["relstore.instance_rows"] = float64(st1.InstanceSize)
	m["relstore.epochs_per_commit"] = 0
	if commits := st1.Commits - st0.Commits; commits > 0 {
		m["relstore.epochs_per_commit"] = float64(st1.Epoch-st0.Epoch) / float64(commits)
	}
	m["bench.generator_cpu_s"] = genCPU.Seconds()
	m["bench.samples_query"] = float64(len(queryLat) + len(lat[cRange]))
	m["bench.samples_insert"] = float64(len(lat[cInsert]))
	m["bench.samples_delete"] = float64(len(lat[cDelete]))

	m["wal.bytes_per_commit"], m["wal.checkpoints"], m["wal.dir_bytes_end"] = 0, 0, 0
	m["proqld.restart_s"] = 0
	killedDir := ""
	if sp.durable {
		w := writer.wal
		if w.commits > 0 {
			m["wal.bytes_per_commit"] = float64(w.grown) / float64(w.commits)
		}
		m["wal.checkpoints"] = float64(w.rotations)
		m["wal.dir_bytes_end"] = float64(dirBytes(dataDir))
		if trace {
			killedDir = filepath.Join(e.tmp, sp.name+"-killed")
		}
		var times []float64
		rng := rand.New(rand.NewSource(seed))
		for cycle := 0; cycle < restarts; cycle++ {
			copyTo := ""
			if cycle == restarts-1 {
				copyTo = killedDir
			}
			var t time.Duration
			if d, t, err = crashRestart(e, sp, seed, d, dataDir, writer, rng, copyTo, res); err != nil {
				return nil, err
			}
			times = append(times, t.Seconds())
		}
		m["proqld.restart_s"] = median(times)
	}
	m["proqld.error_rate"] = float64(res.Failed) / float64(res.Attempted)

	d.kill()
	d = nil
	if trace {
		if err := traceMetrics(e, sp, seed, or, killedDir, m); err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
	}
	return res, nil
}

// crashRestart kills the daemon with a write in flight, restarts it on
// the same directory and checks that what it serves is the state after
// the acknowledged writes: the in-flight one may or may not have
// committed unless it was acknowledged before the kill. It returns the
// new daemon and the time from SIGKILL to the first correct answer.
func crashRestart(e *env, sp spec, seed int64, d *daemon, dataDir string,
	w *client, rng *rand.Rand, copyTo string, res *result) (*daemon, time.Duration, error) {
	hc := w.hc
	o := w.stream.next(w.i)
	acked := make(chan bool, 1)
	go func() {
		_, err := post(hc, d.base, o)
		acked <- err == nil
	}()
	time.Sleep(time.Duration(500+rng.Intn(3000)) * time.Microsecond)
	killed := time.Now()
	d.kill()
	wasAcked := <-acked
	hc.CloseIdleConnections()
	if copyTo != "" {
		if err := copyDir(dataDir, copyTo); err != nil {
			return nil, 0, err
		}
		killed = time.Now() // the copy is not part of the restart
	}
	nd, err := e.startDaemon(sp, seed, dataDir)
	if err != nil {
		return nil, 0, fmt.Errorf("restart on %s: %w", dataDir, err)
	}
	w.base = nd.base
	raw, err := post(hc, nd.base, op{query: "FOR [A0 $x] RETURN $x", backend: "auto"})
	took := time.Since(killed)
	res.Attempted++
	if err != nil {
		res.fail("fingerprint after restart: %v", err)
		return nd, took, nil
	}
	var r queryReply
	if err := json.Unmarshal(raw, &r); err != nil {
		res.fail("fingerprint after restart: %v", err)
		return nd, took, nil
	}
	applied := false
	switch {
	case sameBindings(r.Bindings, map[string][]string{"x": w.or.fingerprint(false)}):
	case sameBindings(r.Bindings, map[string][]string{"x": w.or.fingerprint(true)}):
		applied = true
	default:
		res.fail("fingerprint after restart matches neither legal state: %d target tuples", len(r.Bindings["x"]))
		return nd, took, nil
	}
	tookEffect := applied == (o.class == cInsert)
	if wasAcked && !tookEffect {
		res.fail("acknowledged write (insert=%v) lost by the restart", o.class == cInsert)
	}
	if tookEffect {
		w.i++ // the stream continues after the write that committed
	}
	return nd, took, nil
}
