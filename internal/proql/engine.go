package proql

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"slices"
	"strings"
	"time"

	"repro/internal/exchange"
	"repro/internal/model"
	"repro/internal/proql/physplan"
	"repro/internal/provgraph"
	"repro/internal/semiring"
)

// Engine executes ProQL queries over an exchanged system. By default
// it routes each query from its syntax alone (autoBackend): a live
// query with no WHERE runs on the path backend (physplan over the
// provenance relations), EVALUATE included; any other query runs on
// the relational backend (Section 4), falling back to path for query
// shapes the relational translation does not cover. Every query reads
// a snapshot it pins for itself. Between queries the engine keeps the
// plan cache, keyed by query shape and the local tables holding rows,
// the dense tables path queries resolved at the newest epoch they read
// (denseCache), valid for that epoch alone, and the emptied arrays of
// finished path views; a commit has nothing of it to invalidate.
type Engine struct {
	Sys *exchange.System

	// RewriteRules, when set, rewrites the unfolded conjunctive rules
	// before planning — the hook the ASR layer (Section 5) uses to
	// substitute materialized path indexes. It applies to the
	// relational backend only, and does not change auto's routing:
	// callers that set it pin Options.Backend to "relational".
	RewriteRules func([]*ConjRule) []*ConjRule

	// plans is the shape-keyed plan cache shared by all backends; it is
	// internally synchronized.
	plans *planCache
	// views keeps finished path views' per-query arrays for reuse.
	views spareViews
	// dense holds the dense tables path views resolved at the newest
	// epoch they read, for the next views of that epoch.
	dense denseCache
}

// NewEngine builds an engine over a system. The engine is safe for
// concurrent queries (Exec/ExecString) and for commits concurrent with
// them: every query pins the snapshot it reads.
func NewEngine(sys *exchange.System) *Engine {
	return &Engine{Sys: sys, plans: newPlanCache()}
}

// Binding is one RETURN row: distinguished variable → tuple node.
type Binding map[string]model.TupleRef

// Stats reports how a query was executed. UnfoldTime and EvalTime are
// the two components the paper plots separately in Figures 7–8.
// UnfoldTime is the relational backend's translation: on a plan-cache
// miss the unfolding (CompileUnfold) plus building the plan template,
// on a hit binding the query's literals into the cached template.
// PlanTime is the path backend's physical-planning component. AsOf
// is the historical epoch the query asked for (0 = the live epoch);
// Epoch is the storage epoch whose state the query read, whichever way
// it was chosen: replaying the query AS OF Epoch gives the same answer.
type Stats struct {
	Backend       string // the executor that ran: "relational" or "path"
	AsOf          uint64
	Epoch         uint64
	UnfoldedRules int
	UnfoldTime    time.Duration
	PlanTime      time.Duration
	EvalTime      time.Duration
}

// Result is a ProQL query result: the distinguished-variable bindings,
// (for EVALUATE queries) the computed annotations keyed by tuple node,
// and the projected provenance subgraph.
//
// Mirroring the paper's implementation — which populates relational
// *output tables* of provenance edges, leaving graph assembly to the
// client — every backend records the projected derivations as
// (mapping, provenance row) pairs and only links them into a
// provgraph.Graph when Graph() is first called; Stats therefore measure
// query processing exactly as Section 6 does. The projected structure
// is fixed by the query; the tuple nodes' stored rows and leaf marks
// resolve when Graph() first links — against the newest epoch for a
// live query (a tuple deleted since carries no row), against its own
// epoch for an AS OF query. EVALUATE links nothing either: each backend
// computes the annotations from the state the query read. A Result
// pins nothing: the snapshot the query read is released before Exec
// returns.
type Result struct {
	// Bindings holds one map per RETURN row, sorted by (Rel, Key)
	// variable by variable. Exec fills it; Eval leaves it nil. Len,
	// Vars and SortedRefs answer from the compact rows either way.
	Bindings    []Binding
	Annotations map[model.TupleRef]semiring.Value
	Semiring    semiring.Semiring
	Stats       Stats

	rows       resultRows
	graph      *provgraph.Graph
	buildGraph func() (*provgraph.Graph, error)
}

// Len returns the number of RETURN rows.
func (r *Result) Len() int { return r.rows.n }

// Vars returns the distinct RETURN variables the rows bind, in RETURN
// order; nil when there are no rows.
func (r *Result) Vars() []string {
	if r.rows.n == 0 {
		return nil
	}
	var out []string
	for _, v := range r.rows.vars {
		if !slices.Contains(out, v) {
			out = append(out, v)
		}
	}
	return out
}

// Graph returns the projected provenance subgraph, assembling it from
// the collected output rows on first call.
func (r *Result) Graph() (*provgraph.Graph, error) {
	if r.graph != nil {
		return r.graph, nil
	}
	if r.buildGraph == nil {
		r.graph = provgraph.New()
		return r.graph, nil
	}
	g, err := r.buildGraph()
	if err != nil {
		return nil, err
	}
	r.graph = g
	return g, nil
}

// linkAt links a recorded projection with tuple metadata resolved at
// epoch asOf (0: the newest) — the rule Result.Graph documents.
func (e *Engine) linkAt(asOf uint64, derivs iter.Seq[physplan.ProjDeriv], tuples ...[]model.TupleRef) (*provgraph.Graph, error) {
	sys, release, err := e.snapshotAt(asOf)
	if err != nil {
		return nil, err
	}
	defer release()
	return e.linkProjection(derivs, sys, tuples...)
}

// linkProjection is the one builder of projected subgraphs: a
// derivation node per recorded (mapping, provenance row), wired to the
// source and target tuples the row names, plus a node for every tuple
// in tuples (returned and path-start tuples), each tuple node carrying
// its stored row (nil when the tuple is not stored) and leaf mark in
// the pinned view sys. Nodes link in canonical order — tuple nodes by
// ref, then derivations by ID — so equal projections render
// identically whichever backend recorded them.
func (e *Engine) linkProjection(derivs iter.Seq[physplan.ProjDeriv], sys *exchange.System, tuples ...[]model.TupleRef) (*provgraph.Graph, error) {
	type linked struct {
		id, mapping string
		srcs, tgts  []model.TupleRef
	}
	var ds []linked
	var refs []model.TupleRef
	for _, ts := range tuples {
		refs = append(refs, ts...)
	}
	for d := range derivs {
		pr, ok := e.Sys.Prov[d.Mapping]
		if !ok {
			return nil, fmt.Errorf("proql: unknown mapping %q in output", d.Mapping)
		}
		srcs, tgts := e.Sys.AtomRefs(pr, d.Row)
		ds = append(ds, linked{provgraph.DerivIDFor(d.Mapping, d.Row), d.Mapping, srcs, tgts})
		refs = append(append(refs, srcs...), tgts...)
	}
	slices.SortFunc(refs, compareRefs)
	slices.SortFunc(ds, func(a, b linked) int { return strings.Compare(a.id, b.id) })
	g := provgraph.New()
	for _, ref := range slices.Compact(refs) {
		tn := g.Tuple(ref)
		if t, ok := sys.DB.Table(ref.Rel); ok {
			tn.Row, _ = t.LookupEncoded(ref.Key)
		}
		tn.Leaf = sys.IsLeafRef(ref)
	}
	for _, d := range ds {
		g.AddDerivation(d.id, d.mapping, d.srcs, d.tgts)
	}
	return g, nil
}

// MustGraph is Graph for callers that treat assembly failure as fatal
// (tests, examples).
func (r *Result) MustGraph() *provgraph.Graph {
	g, err := r.Graph()
	if err != nil {
		panic(err)
	}
	return g
}

// SortedRefs returns the distinct bound refs of a variable, sorted by
// (Rel, Key) — convenience for deterministic output.
func (r *Result) SortedRefs(v string) []model.TupleRef {
	return r.rows.sortedRefs(v)
}

// Options selects how one Exec, Eval or Explain call runs. The zero
// value is the default policy: auto against the live epoch.
type Options struct {
	// Backend forces an execution backend for this call: "relational"
	// or "path". Empty or "auto" keeps the default policy of
	// autoBackend: path for a live query with no WHERE; otherwise
	// relational when the translation covers the query, path when it
	// does not.
	Backend string
	// AsOfEpoch, when non-zero, evaluates the query AS OF that storage
	// epoch: every backend pins a SnapshotAt view instead of the live
	// snapshot, so the answer is the one the same query produced when
	// that epoch was current. The epoch must be within the retention
	// window (relstore.Database.SetRetention) or Exec returns
	// *relstore.ErrEpochOutOfRange. 0 = live.
	AsOfEpoch uint64
}

// Exec is the query entry point: it runs an already parsed query under
// ctx with the given per-call options. A cancellable ctx (one with a
// Done channel) is polled during evaluation — per result row / start
// tuple — and aborts the query with ctx.Err() once cancelled or past
// its deadline; context.Background() and nil impose no bound.
//
// The context binding is per-call state on q: a *Query shared by
// concurrent Exec calls must use non-cancellable contexts (the
// concurrency the plan cache is built for), since binding a
// cancellable one mutates q.
//
// Exec is Eval plus the materialization of Result.Bindings.
func (e *Engine) Exec(ctx context.Context, q *Query, opts Options) (*Result, error) {
	res, err := e.Eval(ctx, q, opts)
	if err != nil {
		return nil, err
	}
	res.Bindings = res.rows.bindings()
	return res, nil
}

// Eval runs a query exactly as Exec does but leaves Result.Bindings
// nil: the answer stays in its compact row form, read through Len,
// Vars and SortedRefs — all a caller that renders distinct refs per
// variable (the HTTP server) needs, without one map per row.
func (e *Engine) Eval(ctx context.Context, q *Query, opts Options) (*Result, error) {
	if ctx != nil && ctx.Done() != nil {
		q.Cancel = ctx.Err
	}
	backend, reason, err := e.route(q, opts)
	if err != nil {
		return nil, err
	}
	if backend == "relational" {
		res, err := e.execUnfold(q, opts.AsOfEpoch)
		if reason == "" { // forced: no fallback
			return res, err
		}
		var nr *ErrNotRelational
		if !errors.As(err, &nr) {
			return res, err
		}
	}
	return e.execPath(q, opts.AsOfEpoch)
}

// route resolves opts.Backend for q, for Eval and Explain alike: the
// executor that runs q ("relational" or "path") and the reason EXPLAIN
// names: autoBackend's under auto, "forced" for a forced path, none for
// a forced relational. Only an auto route to relational falls back to
// path where the translation does not cover q. An unknown name is an
// *ErrUnknownBackend.
func (e *Engine) route(q *Query, opts Options) (backend, reason string, err error) {
	switch opts.Backend {
	case "", "auto":
		backend, reason = e.autoBackend(q, opts.AsOfEpoch)
		return backend, reason, nil
	case "relational":
		return "relational", "", nil
	case "path", "asr", "graph": // asr and graph: older names bench/ still sends
		return "path", "forced", nil
	}
	return "", "", &ErrUnknownBackend{Backend: opts.Backend}
}

// ErrUnknownBackend is the error of a backend name that Eval and
// Explain do not know.
type ErrUnknownBackend struct{ Backend string }

func (e *ErrUnknownBackend) Error() string {
	return fmt.Sprintf("proql: unknown backend %q (want auto, relational or path)", e.Backend)
}

// autoBackend routes a query for backend "auto" from its syntax and
// the call's settings alone, with no statistics and before any
// unfolding, and names what decided. A query with no WHERE runs on
// path, EVALUATE included: it reads whole relations, where the
// relational translation's union of unfolded rules grows exponentially
// with the mapping chain and the path walk does not, and the path
// executor annotates over what it recorded (annotatePath). Everything
// else stays relational, the translation's measured ground, and falls
// back to path for the shapes the translation does not cover:
// key-pinned and range WHERE reads (no measurement has yet moved them)
// and AS OF reads, which were measured slower on path when it kept a
// per-epoch handle cache and have not been measured since.
// RewriteRules plays no part: no ASR configuration beat the path
// executor on Figs. 11–13 (EXPERIMENTS E6–E8).
func (e *Engine) autoBackend(q *Query, asOf uint64) (backend, reason string) {
	switch {
	case q.Projection.Where != nil:
		return "relational", "WHERE"
	case asOf != 0:
		return "relational", "AS OF"
	}
	return "path", "no WHERE"
}

// ExecString parses and runs a query with default options.
func (e *Engine) ExecString(query string) (*Result, error) {
	q, err := Parse(query)
	if err != nil {
		return nil, err
	}
	return e.Exec(context.Background(), q, Options{})
}

// snapshotAt pins the system for one query: the live epoch when asOf
// is 0, the retained historical epoch otherwise.
func (e *Engine) snapshotAt(asOf uint64) (*exchange.System, func(), error) {
	if asOf == 0 {
		sys, release := e.Sys.Snapshot()
		return sys, release, nil
	}
	return e.Sys.SnapshotAt(asOf)
}

// Graph materializes the whole provenance graph from a pinned storage
// snapshot: one consistent epoch, private to the caller, never patched
// afterwards.
func (e *Engine) Graph() (*provgraph.Graph, error) {
	sys, release := e.Sys.Snapshot()
	defer release()
	return provgraph.Build(sys)
}

// InvalidateGraph, MaintainGraph and MaintainGraphInsert do nothing:
// what outlives a query is keyed by what it holds for (a shape, an
// epoch), so a commit has nothing to invalidate. They keep the names bench/trace.go calls, which
// re-enacts core's commit path by hand.
func (e *Engine) InvalidateGraph() {}

// MaintainGraph does nothing; see InvalidateGraph.
func (e *Engine) MaintainGraph(*exchange.MaintenanceReport) {}

// MaintainGraphInsert does nothing; see InvalidateGraph.
func (e *Engine) MaintainGraphInsert(*exchange.InsertionReport) {}
