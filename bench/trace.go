package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/asr"
	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/exchange"
	"repro/internal/model"
	"repro/internal/proql"
	"repro/internal/provgraph"
	"repro/internal/wal"
	"repro/internal/workload"
)

// span is one timed call into a layer's public API. Spans of one request
// share Op; Parent is the span that made the call (-1 for a request's
// root). Self is the duration minus the part child spans cover.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// tracer keeps spans in memory; the replay is single-threaded, so the
// open spans form a stack.
type tracer struct {
	t0    time.Time
	op    int
	spans []span
	open  []int
}

func (t *tracer) begin(name string) int {
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name, Start: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end() {
	id := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[id]
	s.End = int64(time.Since(t.t0))
	s.Self += s.End - s.Start
	if s.Parent >= 0 {
		t.spans[s.Parent].Self -= s.End - s.Start
	}
}

// medians returns, per span name, the median duration and self time in ms.
func (t *tracer) medians() (dur, self map[string]float64) {
	d, s := map[string][]float64{}, map[string][]float64{}
	for _, sp := range t.spans {
		d[sp.Name] = append(d[sp.Name], float64(sp.End-sp.Start)/1e6)
		s[sp.Name] = append(s[sp.Name], float64(sp.Self)/1e6)
	}
	dur, self = map[string]float64{}, map[string]float64{}
	for name := range d {
		dur[name], self[name] = median(d[name]), median(s[name])
	}
	return dur, self
}

// inproc is the same system proqld serves, built in this process.
type inproc struct {
	sys *core.System
	ex  *exchange.System
	eng *proql.Engine
	idx *asr.Index
	st  *wal.Store // nil in memory
	// present tracks the churned keys; the replay is sequential, so a
	// range read must see exactly this state.
	present bool
	or      *oracle

	// What the traced ops reported, one entry per op.
	unfoldMS, planMS, evalMS, unfoldedRules []float64
	deltaDerivations                        []float64
	tuplesVisited, derivationsVisited       []float64
	fullRuns                                int
}

// openInproc builds the instance the way proqld's buildSystem does.
func openInproc(sp spec, seed int64, dir string, or *oracle) (*inproc, error) {
	p := &inproc{or: or}
	if sp.durable {
		set, st, err := workload.OpenDurable(sp.config(seed), dir,
			wal.Options{SyncEvery: syncEvery, CheckpointEvery: checkpointEvery, Retain: uint64(sp.retain)})
		if err != nil {
			return nil, err
		}
		p.sys = core.WrapDurable(set.Sys, st)
	} else {
		set, err := workload.Build(sp.config(seed))
		if err != nil {
			return nil, err
		}
		if sp.retain != 0 {
			set.Sys.DB.SetRetention(uint64(sp.retain))
		}
		p.sys = core.Wrap(set.Sys)
	}
	p.ex, p.eng, p.idx, p.st = p.sys.Exchange(), p.sys.Engine(), p.sys.ASRIndex(), p.sys.Store()
	return p, nil
}

func (p *inproc) checkRead(o op, got map[string][]string) error {
	want := o.want
	if o.class == cRange {
		want = map[string][]string{}
		if p.present {
			want["x"] = p.or.churnRefs
		}
	}
	if !sameBindings(got, want) {
		return fmt.Errorf("in-process replay: wrong answer to %q on %s", o.query, o.backend)
	}
	return nil
}

// plain runs one op through the facade, as proqld's handlers do.
func (p *inproc) plain(o op) error {
	switch o.class {
	case cInsert:
		if err := p.sys.InsertLocal(o.rel, o.tuples()...); err != nil {
			return err
		}
		p.present = true
		return p.sys.Run()
	case cDelete:
		p.present = false
		_, err := p.sys.DeleteLocal(o.rel, o.keyDatums()...)
		return err
	}
	q, err := proql.Parse(o.query)
	if err != nil {
		return err
	}
	res, err := p.eng.Exec(context.Background(), q, proql.Options{Backend: o.backend})
	if err != nil {
		return err
	}
	return p.checkRead(o, bindingsOf(res))
}

// traced runs one op as the calls core.System.Run / DeleteLocal and
// proqld's query handler make, in their order, with a span around each.
func (p *inproc) traced(t *tracer, o op) error {
	db := p.ex.DB
	commit := "relstore.publish"
	if p.st != nil {
		commit = "wal.commit" // EndBatch runs the commit hook: log append + fsync
	}
	checkpoint := func() error {
		if p.st == nil {
			return nil
		}
		id := t.begin("wal.checkpoint")
		did, err := p.st.MaybeCheckpoint()
		t.end()
		if !did {
			t.spans[id].Name = "wal.checkpoint_not_due"
		}
		return err
	}
	switch o.class {
	case cInsert:
		t.begin("proqld.insert")
		defer t.end()
		t.begin("exchange.insert_local")
		err := p.ex.InsertLocal(o.rel, o.tuples()...)
		t.end()
		if err != nil {
			return err
		}
		p.present = true
		t.begin("core.run")
		defer t.end()
		db.BeginBatch()
		t.begin("exchange.run_delta")
		report, err := p.ex.RunDelta()
		t.end()
		if err != nil {
			db.EndBatch()
			return err
		}
		t.begin("asr.apply_insertions")
		asrErr := p.idx.ApplyInsertions(report)
		t.end()
		t.begin(commit)
		db.EndBatch()
		t.end()
		t.begin("provgraph.patch_insert")
		if report.Full {
			p.eng.InvalidateGraph()
			p.fullRuns++
		} else {
			p.eng.MaintainGraphInsert(report)
		}
		t.end()
		p.deltaDerivations = append(p.deltaDerivations, float64(report.Derivations))
		if asrErr != nil {
			return asrErr
		}
		return checkpoint()
	case cDelete:
		t.begin("proqld.delete")
		defer t.end()
		p.present = false
		t.begin("core.delete")
		defer t.end()
		db.BeginBatch()
		t.begin("exchange.delete_local")
		report, err := p.ex.DeleteLocal(o.rel, o.keyDatums()...)
		t.end()
		if err != nil {
			db.EndBatch()
			return err
		}
		t.begin("asr.apply_deletions")
		asrErr := p.idx.ApplyDeletions(report)
		t.end()
		t.begin(commit)
		db.EndBatch()
		t.end()
		t.begin("provgraph.patch_delete")
		p.eng.MaintainGraph(report)
		t.end()
		p.tuplesVisited = append(p.tuplesVisited, float64(report.TuplesVisited))
		p.derivationsVisited = append(p.derivationsVisited, float64(report.DerivationsVisited))
		if asrErr != nil {
			return asrErr
		}
		return checkpoint()
	}
	t.begin("proqld.query")
	defer t.end()
	t.begin("proql.parse")
	q, err := proql.Parse(o.query)
	t.end()
	if err != nil {
		return err
	}
	t.begin("proql.exec")
	res, err := p.eng.Exec(context.Background(), q, proql.Options{Backend: o.backend})
	t.end()
	if err != nil {
		return err
	}
	t.begin("proql.sorted_refs")
	got := bindingsOf(res)
	t.end()
	p.unfoldMS = append(p.unfoldMS, ms(res.Stats.UnfoldTime))
	p.planMS = append(p.planMS, ms(res.Stats.PlanTime))
	p.evalMS = append(p.evalMS, ms(res.Stats.EvalTime))
	p.unfoldedRules = append(p.unfoldedRules, float64(res.Stats.UnfoldedRules))
	return p.checkRead(o, got)
}

// interleave merges rounds rounds of every stream into one sequence: in
// each round a client's ops sit at their fractional positions, so a
// reader's requests fall between the writer's insert and delete as they
// do under load.
func interleave(streams []stream, rounds int) []op {
	type slot struct {
		pos    float64
		client int
	}
	var order []slot
	for ci, st := range streams {
		for k := 0; k < st.rot; k++ {
			order = append(order, slot{(float64(k) + 0.5) / float64(st.rot), ci})
		}
	}
	sort.SliceStable(order, func(i, j int) bool { return order[i].pos < order[j].pos })
	next := make([]int, len(streams))
	var ops []op
	for r := 0; r < rounds; r++ {
		for _, s := range order {
			ops = append(ops, streams[s.client].next(next[s.client]))
			next[s.client]++
		}
	}
	return ops
}

// traceMetrics is the traced run: it replays a fixed prefix of the
// seeded request streams in-process — once through the core.System
// facade, once call by call with spans — then times the layer entry
// points no request reaches on its own, and fills the trace-sourced
// per-layer metrics into m.
func traceMetrics(e *env, sp spec, seed int64, or *oracle, killedDir string, m map[string]float64) error {
	dir := filepath.Join(e.tmp, sp.name+"-trace-data")
	p, err := openInproc(sp, seed, dir, or)
	if err != nil {
		return err
	}
	defer p.sys.Close()
	streams := sp.streams(seed, or)
	ops := interleave(streams, sp.traceRounds)
	perRound := len(ops) / sp.traceRounds
	builds0 := provgraph.Builds()

	// One round warms the plan cache and the graph, as the daemon's
	// warm-up does; whole rounds leave the churned keys absent again.
	for _, o := range ops[:perRound] {
		if err := p.plain(o); err != nil {
			return err
		}
	}
	// Untraced, traced, untraced: the mean of the two untraced passes
	// cancels whatever drifts over the three (heap growth, host speed).
	var plainTime time.Duration
	plainPass := func() error {
		start := time.Now()
		for _, o := range ops {
			if err := p.plain(o); err != nil {
				return err
			}
		}
		plainTime += time.Since(start)
		return nil
	}
	if err := plainPass(); err != nil {
		return err
	}
	t := &tracer{t0: time.Now()}
	start := time.Now()
	for i, o := range ops {
		t.op = i
		if err := p.traced(t, o); err != nil {
			return err
		}
	}
	tracedTime := time.Since(start)
	if err := plainPass(); err != nil {
		return err
	}
	m["bench.trace_overhead_ratio"] = 2 * tracedTime.Seconds() / plainTime.Seconds()
	m["provgraph.builds"] = float64(provgraph.Builds() - builds0)

	if err := p.probes(t, sp, seed, killedDir, m); err != nil {
		return err
	}

	dur, self := t.medians()
	for _, name := range []string{
		"proql.parse", "proql.sorted_refs",
		"proql.exec_relational", "proql.exec_graph", "proql.exec_asr", "proql.exec_asof",
		"relstore.snapshot_pin", "relstore.snapshot_at", "relstore.publish",
		"exchange.insert_local", "exchange.run_delta", "exchange.delete_local", "exchange.open_durable",
		"datalog.compile", "datalog.full_run",
		"asr.apply_insertions", "asr.apply_deletions",
		"provgraph.build", "provgraph.patch_insert", "provgraph.patch_delete",
		"wal.commit", "wal.checkpoint", "wal.open_replay",
		"core.run", "core.delete",
	} {
		m[name+"_ms"] = dur[name] // 0 when the workload never makes the call
	}
	m["core.run_self_ms"] = self["core.run"]
	m["core.delete_self_ms"] = self["core.delete"]
	m["proql.unfold_ms"] = median(p.unfoldMS)
	m["physplan.plan_ms"] = median(p.planMS)
	m["proql.eval_ms"] = median(p.evalMS)
	m["proql.unfolded_rules"] = median(p.unfoldedRules)
	m["exchange.full_runs"] = float64(p.fullRuns)
	m["exchange.delta_derivations_per_insert"] = median(p.deltaDerivations)
	m["exchange.tuples_visited_per_delete"] = median(p.tuplesVisited)
	m["exchange.derivations_visited_per_delete"] = median(p.derivationsVisited)

	out, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(e.out, "trace-"+sp.name+".json"), out, 0o644)
}

// probes times the public entry points a request does not reach by
// itself at this workload — each backend on the same point query, the
// storage primitives, a from-scratch Datalog run, a graph build, a
// checkpoint, and recovery of the directory the daemon was killed on.
func (p *inproc) probes(t *tracer, sp spec, seed int64, killedDir string, m map[string]float64) error {
	db := p.ex.DB
	rng := rand.New(rand.NewSource(seed))
	t.op = -1

	// Time travel needs history: eight epochs back where the workload
	// retains them, the newest epoch (always answerable) otherwise.
	asOf := db.Epoch()
	if floor := db.RetentionFloor(); floor > 0 && asOf >= floor+8 {
		asOf -= 8
	}
	for _, b := range []struct {
		name string
		opts proql.Options
	}{
		{"relational", proql.Options{Backend: "relational"}},
		{"graph", proql.Options{Backend: "graph"}},
		{"asr", proql.Options{Backend: "asr"}},
		{"asof", proql.Options{AsOfEpoch: asOf}},
	} {
		for i := 0; i < 30; i++ {
			o := p.or.pointOp(cPoint, b.opts.Backend, rng)
			q, err := proql.Parse(o.query)
			if err != nil {
				return err
			}
			t.begin("proql.exec_" + b.name)
			res, err := p.eng.Exec(context.Background(), q, b.opts)
			t.end()
			if err != nil {
				return fmt.Errorf("probe %s: %w", b.name, err)
			}
			if err := p.checkRead(o, bindingsOf(res)); err != nil {
				return fmt.Errorf("probe %s: %w", b.name, err)
			}
		}
	}

	for i := 0; i < 200; i++ {
		t.begin("relstore.snapshot_pin")
		snap := db.Snapshot()
		t.end()
		snap.Close()
		t.begin("relstore.snapshot_at")
		snap, err := db.SnapshotAt(asOf)
		t.end()
		if err != nil {
			return err
		}
		snap.Close()
	}
	snap := db.Snapshot()
	rows := 0
	start := time.Now()
	for _, name := range snap.TableNames() {
		snap.MustTable(name).Iterate(func(model.Tuple) bool { rows++; return true })
	}
	m["relstore.scan_mrows_per_s"] = float64(rows) / 1e6 / time.Since(start).Seconds()
	target := snap.MustTable("A0")
	encs := make([]string, len(p.or.keys))
	for i, k := range p.or.keys {
		encs[i] = model.EncodeDatums([]model.Datum{k})
	}
	start = time.Now()
	for _, enc := range encs {
		if _, ok := target.LookupEncoded(enc); !ok {
			snap.Close()
			return fmt.Errorf("probe: target key %s missing", enc)
		}
	}
	m["relstore.probe_us"] = float64(time.Since(start).Microseconds()) / float64(len(encs))
	snap.Close()

	// A from-scratch fixpoint of the exchange program over the same base
	// data, without the exchange layer's provenance hooks.
	scratch, err := exchange.NewSystem(p.ex.Schema, exchange.Options{})
	if err != nil {
		return err
	}
	for _, r := range p.ex.Schema.PublicRelations() {
		if err := scratch.InsertLocal(r.Name, db.MustTable(r.LocalName()).Rows()...); err != nil {
			return err
		}
	}
	t.begin("datalog.compile")
	prog, err := datalog.Compile(scratch.DB, scratch.Rules())
	t.end()
	if err != nil {
		return err
	}
	t.begin("datalog.full_run")
	err = datalog.NewEngine(scratch.DB).RunProgram(prog)
	t.end()
	if err != nil {
		return err
	}
	if got, want := scratch.DB.MustTable("A0").Len(), db.MustTable("A0").Len(); got != want {
		return fmt.Errorf("probe: scratch fixpoint derived %d target tuples, want %d", got, want)
	}

	view, release := p.ex.Snapshot()
	t.begin("provgraph.build")
	_, err = provgraph.Build(view)
	t.end()
	release()
	if err != nil {
		return err
	}

	m["wal.checkpoint_bytes"], m["wal.replayed_batches"] = 0, 0
	if p.st == nil {
		return nil
	}
	t.begin("wal.checkpoint")
	err = p.st.Checkpoint()
	t.end()
	if err != nil {
		return err
	}
	ents, err := os.ReadDir(p.st.Dir())
	if err != nil {
		return err
	}
	for _, ent := range ents {
		if info, err := ent.Info(); err == nil && strings.HasSuffix(ent.Name(), ".ckpt") {
			m["wal.checkpoint_bytes"] = float64(info.Size())
		}
	}
	wopts := wal.Options{SyncEvery: syncEvery, CheckpointEvery: checkpointEvery, Retain: uint64(sp.retain)}
	t.begin("wal.open_replay")
	st, err := wal.Open(killedDir, wopts)
	t.end()
	if err != nil {
		return err
	}
	m["wal.replayed_batches"] = float64(st.Replayed())
	if err := st.Close(); err != nil {
		return err
	}
	t.begin("exchange.open_durable")
	_, st, err = exchange.OpenDurable(p.ex.Schema, killedDir, wopts, exchange.Options{})
	t.end()
	if err != nil {
		return err
	}
	return st.Close()
}
