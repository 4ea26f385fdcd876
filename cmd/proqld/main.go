// Command proqld serves ProQL over HTTP: any number of concurrent
// query requests run against snapshot-isolated storage epochs while
// insert/delete requests commit update exchanges. It is the serving
// face of the MVCC layer — a query admitted before a commit publishes
// answers from the pre-commit state; one admitted after sees the
// whole commit.
//
// Usage:
//
//	proqld                        # running example on :8080
//	proqld -addr :9090            # custom listen address
//	proqld -peers 8 -data 2 -base 100   # synthetic chain setting
//	proqld -retain 64             # keep the history of the last 64 writes for AS OF queries
//	proqld -smoke                 # self-test on an ephemeral port and exit
//
// SIGTERM or SIGINT shuts the daemon down cleanly: requests in flight
// finish, then the durable store syncs its log and waits for a
// checkpoint in flight, so every acknowledged write survives.
//
// The API is versioned under /v1. Errors are a JSON envelope
// {"error": "...", "code": "..."}: 400 bad_request for malformed
// requests (including epoch_out_of_range for an AS OF epoch outside
// the retention window), 404 not_found for unknown routes, 413
// request_too_large for a body over 8 MiB, 503
// over_capacity past -max-conns, 503 durability_lost for every write
// once a commit could not be logged (reads keep working; restart to
// recover the state on disk).
//
// Endpoints:
//
//	GET  /v1/healthz   liveness probe
//	GET  /v1/stats     epoch, retention floor, instance size, counters, write-lock and log timings
//	POST /v1/query     {"query": "FOR [O $x] ... RETURN $x", "backend": "auto|relational|path", "as_of": 7}
//	                   (the reply's "backend" names the executor that ran)
//	POST /v1/diff      {"query": "...", "from": 5, "to": 9}  (what appeared/disappeared)
//	POST /v1/insert    {"relation": "A", "rows": [[3, "sn3", 9]]}  (one commit: rows and what they derive)
//	POST /v1/delete    {"relation": "A", "keys": [[3]]}            (one commit: rows and what depended on them)
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/fixture"
	"repro/internal/model"
	"repro/internal/proql"
	"repro/internal/relstore"
	"repro/internal/wal"
	"repro/internal/workload"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		peers     = flag.Int("peers", 0, "serve a synthetic setting with this many peers instead of the running example")
		dataN     = flag.Int("data", 2, "number of peers with local data (synthetic setting)")
		base      = flag.Int("base", 100, "base size per data peer (synthetic setting)")
		topology  = flag.String("topology", "chain", "chain or branched (synthetic setting)")
		seed      = flag.Int64("seed", 42, "workload seed")
		dataDir   = flag.String("data-dir", "", "persist storage in this directory (checkpoint + write-ahead log); restart recovers the instance instead of rebuilding it")
		syncEvery = flag.Int("sync-every", 1, "fsync the log every N commits (durable mode; 1 = every commit)")
		ckptEvery = flag.Int("checkpoint-every", 256, "checkpoint after this many commits (durable mode; 0 = never)")
		retain    = flag.Int64("retain", 0, "keep the row history of this many writes for AS OF queries: every /v1/insert or /v1/delete is one epoch (-1 = retain everything, 0 = live-only)")
		timeout   = flag.Duration("query-timeout", 30*time.Second, "abort queries running longer than this (0 = no limit)")
		maxConns  = flag.Int("max-conns", 64, "concurrent request limit; excess requests get 503 instead of queuing (0 = unlimited)")
		smoke     = flag.Bool("smoke", false, "start on an ephemeral port, run a concurrent read/write self-test, and exit")
	)
	flag.Parse()

	sys, err := buildSystem(*peers, *dataN, *base, *topology, *seed, *dataDir, *syncEvery, *ckptEvery, retainEpochs(*retain))
	if err != nil {
		fmt.Fprintln(os.Stderr, "proqld:", err)
		os.Exit(1)
	}
	srv := newServer(sys, *timeout, *maxConns)

	if *smoke {
		err := runSmoke(srv)
		sys.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "proqld: smoke:", err)
			os.Exit(1)
		}
		return
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		sys.Close()
		fmt.Fprintln(os.Stderr, "proqld:", err)
		os.Exit(1)
	}
	if *dataDir != "" {
		fmt.Printf("proqld serving durable store %s on %s\n", *dataDir, *addr)
	} else {
		fmt.Printf("proqld listening on %s\n", *addr)
	}
	if err := serve(ln, srv); err != nil {
		fmt.Fprintln(os.Stderr, "proqld:", err)
		os.Exit(1)
	}
}

// serve answers HTTP on ln until SIGTERM or SIGINT arrives, then shuts
// down in order: it stops accepting, lets the requests in flight finish
// (each query is bounded by -query-timeout) and closes the system,
// which syncs the log and waits for a background checkpoint in flight.
// Every write acknowledged before the signal is then on disk, whatever
// -sync-every is. A second signal during the drain kills the process.
func serve(ln net.Listener, srv *server) error {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	hs := &http.Server{Handler: srv.handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	var err error
	select {
	case err = <-served:
	case <-ctx.Done():
		stop()
		err = hs.Shutdown(context.Background())
	}
	if cerr := srv.sys.Close(); err == nil {
		err = cerr
	}
	return err
}

// retainEpochs maps the -retain flag onto the storage retention depth:
// -1 keeps every epoch, 0 disables history, N keeps the newest N.
func retainEpochs(flagVal int64) uint64 {
	if flagVal < 0 {
		return relstore.RetainAll
	}
	return uint64(flagVal)
}

func buildSystem(peers, dataN, base int, topology string, seed int64, dataDir string, syncEvery, ckptEvery int, retain uint64) (*core.System, error) {
	wopts := wal.Options{SyncEvery: syncEvery, CheckpointEvery: ckptEvery, Retain: retain}
	if peers <= 0 {
		if dataDir != "" {
			ex, st, err := fixture.DurableSystem(fixture.Options{}, dataDir, wopts)
			if err != nil {
				return nil, err
			}
			return core.WrapDurable(ex, st), nil
		}
		ex, err := fixture.System(fixture.Options{})
		if err != nil {
			return nil, err
		}
		if retain != 0 {
			ex.DB.SetRetention(retain)
		}
		return core.Wrap(ex), nil
	}
	topo := workload.Chain
	if topology == "branched" {
		topo = workload.Branched
	}
	cfg := workload.Config{
		Topology:  topo,
		Profile:   workload.ProfileLinear,
		NumPeers:  peers,
		DataPeers: workload.UpstreamDataPeers(peers, dataN),
		BaseSize:  base,
		Seed:      seed,
	}
	if dataDir != "" {
		set, st, err := workload.OpenDurable(cfg, dataDir, wopts)
		if err != nil {
			return nil, err
		}
		return core.WrapDurable(set.Sys, st), nil
	}
	set, err := workload.Build(cfg)
	if err != nil {
		return nil, err
	}
	if retain != 0 {
		set.Sys.DB.SetRetention(retain)
	}
	return core.Wrap(set.Sys), nil
}

type server struct {
	sys     *core.System
	timeout time.Duration
	// conns admits at most cap(conns) concurrent requests; nil means
	// unlimited. A full semaphore fails fast with 503 — the server
	// never queues admission unboundedly.
	conns    chan struct{}
	queries  atomic.Int64
	commits  atomic.Int64
	rejected atomic.Int64
	timeouts atomic.Int64
}

func newServer(sys *core.System, timeout time.Duration, maxConns int) *server {
	s := &server{sys: sys, timeout: timeout}
	if maxConns > 0 {
		s.conns = make(chan struct{}, maxConns)
	}
	return s
}

func (s *server) mux() *http.ServeMux {
	m := http.NewServeMux()
	// Anything outside /v1 falls through to the catch-all 404 so
	// clients get the JSON error envelope instead of the default text
	// page.
	m.HandleFunc("/v1/healthz", s.handleHealth)
	m.HandleFunc("/v1/stats", s.handleStats)
	m.HandleFunc("/v1/query", s.handleQuery)
	m.HandleFunc("/v1/insert", s.handleInsert)
	m.HandleFunc("/v1/delete", s.handleDelete)
	m.HandleFunc("/v1/diff", s.handleDiff)
	m.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusNotFound, "not_found",
			fmt.Sprintf("unknown route %s (see /v1/query, /v1/insert, /v1/delete, /v1/diff, /v1/stats, /v1/healthz)", r.URL.Path))
	})
	return m
}

// handler wraps the mux with the connection limit. The liveness probe
// bypasses the limit so orchestrators can still see a saturated server
// as alive.
func (s *server) handler() http.Handler {
	m := s.mux()
	if s.conns == nil {
		return m
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/healthz" {
			m.ServeHTTP(w, r)
			return
		}
		select {
		case s.conns <- struct{}{}:
			defer func() { <-s.conns }()
			m.ServeHTTP(w, r)
		default:
			s.rejected.Add(1)
			writeError(w, http.StatusServiceUnavailable, "over_capacity", "server at connection limit")
		}
	})
}

// apiError is the error envelope every non-2xx response carries.
type apiError struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, apiError{Error: msg, Code: code})
}

// maxBodyBytes bounds every request body: reading past it fails the
// request with 413 request_too_large.
const maxBodyBytes = 8 << 20

// decodeBody decodes a POST request's JSON body, of at most
// maxBodyBytes, into v. On failure it has answered with the error
// envelope and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "POST only")
		return false
	}
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		writeError(w, http.StatusRequestEntityTooLarge, "request_too_large",
			fmt.Sprintf("request body exceeds %d bytes", maxBodyBytes))
		return false
	case err != nil:
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return false
	}
	return true
}

func (s *server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	io.WriteString(w, "ok\n")
}

type statsResponse struct {
	Epoch uint64 `json:"epoch"`
	// RetentionFloor is the oldest epoch AS OF queries can answer
	// (0 = history retention off); RetainedVersions counts the
	// superseded row versions currently held for time travel.
	RetentionFloor   uint64 `json:"retention_floor"`
	RetainedVersions int64  `json:"retained_versions"`
	InstanceSize     int    `json:"instance_size"`
	Queries          int64  `json:"queries"`
	Commits          int64  `json:"commits"`
	Rejected         int64  `json:"rejected"`
	Timeouts         int64  `json:"timeouts"`
	Durable          bool   `json:"durable"`
	// CacheEntries, CacheHits and CacheMisses are the relational plan
	// cache's counters; asr and graph queries never touch the cache.
	CacheEntries int `json:"cache_entries"`
	CacheHits    int `json:"cache_hits"`
	CacheMisses  int `json:"cache_misses"`
	// WriteWaitNS and WriteHoldNS total the time writes spent waiting
	// for the writer lock and holding it.
	WriteWaitNS int64 `json:"write_wait_ns"`
	WriteHoldNS int64 `json:"write_hold_ns"`
	// WAL is what the durable store has done since start-up.
	WAL *wal.Stats `json:"wal,omitempty"`
}

func (s *server) handleStats(w http.ResponseWriter, _ *http.Request) {
	st := s.sys.Engine().PlanCacheStats()
	wait, hold := s.sys.WriteLockNS()
	var ws *wal.Stats
	if store := s.sys.Store(); store != nil {
		c := store.Stats()
		ws = &c
	}
	writeJSON(w, http.StatusOK, statsResponse{
		Epoch:            s.sys.Exchange().DB.Epoch(),
		RetentionFloor:   s.sys.Exchange().DB.RetentionFloor(),
		RetainedVersions: s.sys.Exchange().DB.DeadVersions(),
		InstanceSize:     s.sys.Exchange().DB.TotalRows(),
		Queries:          s.queries.Load(),
		Commits:          s.commits.Load(),
		Rejected:         s.rejected.Load(),
		Timeouts:         s.timeouts.Load(),
		Durable:          s.sys.Store() != nil,
		CacheEntries:     st.Entries,
		CacheHits:        st.Hits,
		CacheMisses:      st.Misses,
		WriteWaitNS:      wait,
		WriteHoldNS:      hold,
		WAL:              ws,
	})
}

type queryRequest struct {
	Query string `json:"query"`
	// Backend selects the execution strategy: "" or "auto" (path for a
	// live query with no WHERE; otherwise relational when the query
	// allows, else path), "relational", or "path". The choice is per
	// request; all of them read a pinned snapshot.
	Backend string `json:"backend"`
	// AsOf, when non-zero, evaluates the query against the retained
	// state at that epoch (time travel). Requires the server to run
	// with -retain; epochs outside the retention window are rejected
	// with code epoch_out_of_range.
	AsOf uint64 `json:"as_of"`
}

// queryResponse is the reply to a query. Backend is the executor that
// ran ("relational" or "path"). Epoch
// is the storage epoch the query read (its pinned snapshot), not the
// newest one: the same query with as_of set to it returns the same
// bindings.
type queryResponse struct {
	Bindings  map[string][]string `json:"bindings"`
	Count     int                 `json:"count"`
	Backend   string              `json:"backend"`
	Epoch     uint64              `json:"epoch"`
	AsOf      uint64              `json:"as_of,omitempty"`
	ElapsedNS int64               `json:"elapsed_ns"`
}

// execError maps a failed execution onto the error envelope: timeouts
// and client disconnects are 503, an unknown backend or an AS OF epoch
// outside the retention window is a client error, anything else is
// exec_failed.
func (s *server) execError(w http.ResponseWriter, err error) {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		s.timeouts.Add(1)
		writeError(w, http.StatusServiceUnavailable, "timeout", "query aborted: "+err.Error())
		return
	}
	var oor *relstore.ErrEpochOutOfRange
	if errors.As(err, &oor) {
		writeError(w, http.StatusBadRequest, "epoch_out_of_range", err.Error())
		return
	}
	var ub *proql.ErrUnknownBackend
	if errors.As(err, &ub) {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	writeError(w, http.StatusUnprocessableEntity, "exec_failed", err.Error())
}

func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if !decodeBody(w, r, &req) {
		return
	}
	q, err := proql.Parse(req.Query)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	// The query runs under the request context — a dropped client
	// connection cancels it — bounded by the server's query timeout.
	ctx := r.Context()
	if s.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.timeout)
		defer cancel()
	}
	start := time.Now()
	// The reply lists distinct refs per variable: Eval's compact rows
	// answer that without a binding map per row.
	res, err := s.sys.Engine().Eval(ctx, q, proql.Options{Backend: req.Backend, AsOfEpoch: req.AsOf})
	if err != nil {
		s.execError(w, err)
		return
	}
	s.queries.Add(1)
	resp := queryResponse{
		Bindings:  map[string][]string{},
		Backend:   res.Stats.Backend,
		Epoch:     res.Stats.Epoch,
		AsOf:      res.Stats.AsOf,
		ElapsedNS: time.Since(start).Nanoseconds(),
	}
	for _, v := range res.Vars() {
		refs := res.SortedRefs(v)
		out := make([]string, len(refs))
		for i, ref := range refs {
			out[i] = ref.Rel + "(" + ref.Key + ")"
		}
		resp.Bindings[v] = out
		if len(out) > resp.Count {
			resp.Count = len(out)
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

type diffRequest struct {
	Query   string `json:"query"`
	Backend string `json:"backend"`
	From    uint64 `json:"from"`
	To      uint64 `json:"to"`
}

type diffResponse struct {
	From uint64 `json:"from"`
	To   uint64 `json:"to"`
	// Appeared/Disappeared render each changed binding canonically
	// (var=Rel(key);...); the derivation lists carry the provenance
	// nodes projected by the query that exist at only one epoch.
	Appeared               []string `json:"appeared"`
	Disappeared            []string `json:"disappeared"`
	AppearedDerivations    []string `json:"appeared_derivations"`
	DisappearedDerivations []string `json:"disappeared_derivations"`
	ElapsedNS              int64    `json:"elapsed_ns"`
}

func (s *server) handleDiff(w http.ResponseWriter, r *http.Request) {
	var req diffRequest
	if !decodeBody(w, r, &req) {
		return
	}
	q, err := proql.Parse(req.Query)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	if req.From == 0 || req.To == 0 {
		writeError(w, http.StatusBadRequest, "bad_request", "diff requires non-zero from and to epochs")
		return
	}
	ctx := r.Context()
	if s.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.timeout)
		defer cancel()
	}
	start := time.Now()
	d, err := s.sys.Engine().Diff(ctx, q, req.From, req.To, proql.Options{Backend: req.Backend})
	if err != nil {
		s.execError(w, err)
		return
	}
	s.queries.Add(1)
	resp := diffResponse{
		From:                   d.From,
		To:                     d.To,
		Appeared:               []string{},
		Disappeared:            []string{},
		AppearedDerivations:    d.AppearedDerivations,
		DisappearedDerivations: d.DisappearedDerivations,
		ElapsedNS:              time.Since(start).Nanoseconds(),
	}
	for _, b := range d.Appeared {
		resp.Appeared = append(resp.Appeared, proql.BindingKey(b))
	}
	for _, b := range d.Disappeared {
		resp.Disappeared = append(resp.Disappeared, proql.BindingKey(b))
	}
	writeJSON(w, http.StatusOK, resp)
}

type insertRequest struct {
	Relation string  `json:"relation"`
	Rows     [][]any `json:"rows"`
}

type mutateResponse struct {
	Applied int    `json:"applied"`
	Epoch   uint64 `json:"epoch"`
}

func (s *server) handleInsert(w http.ResponseWriter, r *http.Request) {
	var req insertRequest
	if !decodeBody(w, r, &req) {
		return
	}
	rel, ok := s.sys.Exchange().Schema.Relation(req.Relation)
	if !ok {
		writeError(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("unknown relation %q", req.Relation))
		return
	}
	rows := make([]model.Tuple, len(req.Rows))
	for i, raw := range req.Rows {
		row, err := decodeRow(rel, raw)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("row %d: %v", i, err))
			return
		}
		rows[i] = row
	}
	epoch, err := s.sys.Insert(req.Relation, rows...)
	if err != nil {
		writeFailed(w, err)
		return
	}
	s.commits.Add(1)
	writeJSON(w, http.StatusOK, mutateResponse{Applied: len(rows), Epoch: epoch})
}

// writeFailed maps a failed mutation onto the error envelope: a commit
// the log did not take (and every write after it) is 503
// durability_lost, anything else is exec_failed.
func writeFailed(w http.ResponseWriter, err error) {
	if errors.Is(err, core.ErrDurabilityLost) {
		writeError(w, http.StatusServiceUnavailable, "durability_lost", err.Error())
		return
	}
	writeError(w, http.StatusUnprocessableEntity, "exec_failed", err.Error())
}

type deleteRequest struct {
	Relation string  `json:"relation"`
	Keys     [][]any `json:"keys"`
}

func (s *server) handleDelete(w http.ResponseWriter, r *http.Request) {
	var req deleteRequest
	if !decodeBody(w, r, &req) {
		return
	}
	rel, ok := s.sys.Exchange().Schema.Relation(req.Relation)
	if !ok {
		writeError(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("unknown relation %q", req.Relation))
		return
	}
	keys := make([][]model.Datum, len(req.Keys))
	for i, raw := range req.Keys {
		key, err := decodeKey(rel, raw)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("key %d: %v", i, err))
			return
		}
		keys[i] = key
	}
	epoch, _, err := s.sys.Delete(req.Relation, keys...)
	if err != nil {
		writeFailed(w, err)
		return
	}
	s.commits.Add(1)
	writeJSON(w, http.StatusOK, mutateResponse{Applied: len(keys), Epoch: epoch})
}

// decodeRow converts a JSON row ([]any with float64 numbers) into a
// model.Tuple using the relation's declared column types.
func decodeRow(rel *model.Relation, raw []any) (model.Tuple, error) {
	if len(raw) != len(rel.Columns) {
		return nil, fmt.Errorf("arity %d, want %d", len(raw), len(rel.Columns))
	}
	row := make(model.Tuple, len(raw))
	for i, v := range raw {
		d, err := decodeDatum(rel.Columns[i].Type, v)
		if err != nil {
			return nil, fmt.Errorf("column %s: %v", rel.Columns[i].Name, err)
		}
		row[i] = d
	}
	return row, nil
}

// decodeKey converts JSON key values in key-column order.
func decodeKey(rel *model.Relation, raw []any) ([]model.Datum, error) {
	if len(raw) != len(rel.Key) {
		return nil, fmt.Errorf("%d key values, want %d", len(raw), len(rel.Key))
	}
	key := make([]model.Datum, len(raw))
	for i, v := range raw {
		col := rel.Columns[rel.Key[i]]
		d, err := decodeDatum(col.Type, v)
		if err != nil {
			return nil, fmt.Errorf("key column %s: %v", col.Name, err)
		}
		key[i] = d
	}
	return key, nil
}

func decodeDatum(t model.DatumType, v any) (model.Datum, error) {
	switch t {
	case model.TypeInt:
		f, ok := v.(float64)
		if !ok || f != float64(int64(f)) {
			return nil, fmt.Errorf("want integer, got %v", v)
		}
		return int64(f), nil
	case model.TypeFloat:
		f, ok := v.(float64)
		if !ok {
			return nil, fmt.Errorf("want number, got %v", v)
		}
		return f, nil
	case model.TypeString:
		s, ok := v.(string)
		if !ok {
			return nil, fmt.Errorf("want string, got %v", v)
		}
		return s, nil
	case model.TypeBool:
		b, ok := v.(bool)
		if !ok {
			return nil, fmt.Errorf("want bool, got %v", v)
		}
		return b, nil
	}
	return nil, fmt.Errorf("unsupported column type")
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// runSmoke starts the server on an ephemeral port and drives the CI
// self-test: concurrent readers on all three backends racing HTTP
// insert/delete commits, each response checked against the two legal
// committed states of the running example.
func runSmoke(srv *server) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.handler()}
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()

	if _, err := httpGet(base + "/v1/healthz"); err != nil {
		return err
	}

	// Each HTTP mutation is one commit, so the legal O-binding counts
	// are the committed states of the cycle: 4 (base), 5 (A(3) alone —
	// m4 fires, m1/m5 await N(3)), 6 (both rows in). Anything else is
	// a torn read. (The insert path is differentially tested in
	// internal/core; this smoke checks the serving stack.)
	const q = `FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x`
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	const perBackend = 15
	backends := []string{"auto", "path"}
	for _, backend := range backends {
		wg.Add(1)
		go func(backend string) {
			defer wg.Done()
			for i := 0; i < perBackend; i++ {
				body, err := httpPost(base+"/v1/query", queryRequest{Query: q, Backend: backend})
				if err != nil {
					errs <- fmt.Errorf("%s: %v", backend, err)
					return
				}
				var resp queryResponse
				if err := json.Unmarshal(body, &resp); err != nil {
					errs <- err
					return
				}
				if n := len(resp.Bindings["x"]); n < 4 || n > 6 {
					errs <- fmt.Errorf("%s: %d O bindings, want 4-6", backend, n)
					return
				}
			}
		}(backend)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 0; round < 5; round++ {
			if _, err := httpPost(base+"/v1/insert", insertRequest{
				Relation: "A", Rows: [][]any{{3, "sn3", 9}},
			}); err != nil {
				errs <- err
				return
			}
			if _, err := httpPost(base+"/v1/insert", insertRequest{
				Relation: "N", Rows: [][]any{{3, "cn3", false}},
			}); err != nil {
				errs <- err
				return
			}
			if _, err := httpPost(base+"/v1/delete", deleteRequest{
				Relation: "A", Keys: [][]any{{3}},
			}); err != nil {
				errs <- err
				return
			}
			if _, err := httpPost(base+"/v1/delete", deleteRequest{
				Relation: "N", Keys: [][]any{{3, "cn3", false}},
			}); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		return err
	}

	body, err := httpGet(base + "/v1/stats")
	if err != nil {
		return err
	}
	var st statsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		return err
	}
	if st.Queries < int64(len(backends)*perBackend) || st.Commits < 20 {
		return fmt.Errorf("implausible counters: %+v", st)
	}
	if err := smokeHardening(srv); err != nil {
		return err
	}
	if err := smokeV1(); err != nil {
		return err
	}
	if err := smokeDurable(); err != nil {
		return err
	}
	fmt.Printf("proqld smoke ok: %d queries, %d commits, epoch %d, %d cache entries\n",
		st.Queries, st.Commits, st.Epoch, st.CacheEntries)
	return nil
}

// smokeHardening checks the serving guards: a cancelled context aborts
// query execution on every backend, and a saturated connection limit
// rejects with 503 while the liveness probe stays reachable.
func smokeHardening(srv *server) error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	const text = `FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x`
	eng := srv.sys.Engine()
	for _, backend := range []string{"auto", "relational", "path"} {
		q, err := proql.Parse(text)
		if err != nil {
			return err
		}
		if _, err := eng.Exec(ctx, q, proql.Options{Backend: backend}); !errors.Is(err, context.Canceled) {
			return fmt.Errorf("%s backend ignored cancelled context: err=%v", backend, err)
		}
	}

	// Saturate a limit-1 server and verify fail-fast admission.
	limited := newServer(srv.sys, srv.timeout, 1)
	limited.conns <- struct{}{}
	h := limited.handler()
	rec := newRecorder()
	h.ServeHTTP(rec, mustRequest(http.MethodGet, "/v1/stats"))
	if rec.status != http.StatusServiceUnavailable {
		return fmt.Errorf("saturated server returned %d, want 503", rec.status)
	}
	rec = newRecorder()
	h.ServeHTTP(rec, mustRequest(http.MethodGet, "/v1/healthz"))
	if rec.status != http.StatusOK {
		return fmt.Errorf("liveness probe blocked by connection limit: %d", rec.status)
	}
	<-limited.conns
	if limited.rejected.Load() != 1 {
		return fmt.Errorf("rejected counter = %d, want 1", limited.rejected.Load())
	}
	return nil
}

// smokeV1 drives the versioned API against a retained running example:
// the /v1 routes, time-travel queries (as_of), the diff endpoint, and
// the JSON error envelope for unknown routes, bad backends, and
// out-of-range epochs.
func smokeV1() error {
	sys, err := buildSystem(0, 0, 0, "", 0, "", 1, 0, relstore.RetainAll)
	if err != nil {
		return err
	}
	srv := newServer(sys, 30*time.Second, 16)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.handler()}
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()

	if _, err := httpGet(base + "/v1/healthz"); err != nil {
		return err
	}
	body, err := httpGet(base + "/v1/stats")
	if err != nil {
		return err
	}
	var st statsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		return err
	}
	if st.RetentionFloor == 0 {
		return fmt.Errorf("v1 stats: retention floor 0 with retention enabled")
	}
	before := st.Epoch

	body, err = httpPost(base+"/v1/insert", insertRequest{
		Relation: "A", Rows: [][]any{{3, "sn3", 9}},
	})
	if err != nil {
		return err
	}
	var ins mutateResponse
	if err := json.Unmarshal(body, &ins); err != nil {
		return err
	}

	const q = `FOR [O $x] RETURN $x`
	counts := map[string]int{}
	for _, backend := range []string{"auto", "path"} {
		// Live: the inserted row derived a fifth O tuple.
		body, err := httpPost(base+"/v1/query", queryRequest{Query: q, Backend: backend})
		if err != nil {
			return err
		}
		var live queryResponse
		if err := json.Unmarshal(body, &live); err != nil {
			return err
		}
		// AS OF the pre-insert epoch: the old answer, on every backend.
		body, err = httpPost(base+"/v1/query", queryRequest{Query: q, Backend: backend, AsOf: before})
		if err != nil {
			return fmt.Errorf("%s as_of: %v", backend, err)
		}
		var old queryResponse
		if err := json.Unmarshal(body, &old); err != nil {
			return err
		}
		if old.AsOf != before {
			return fmt.Errorf("%s as_of echo = %d, want %d", backend, old.AsOf, before)
		}
		// A reply names the epoch it read, not the newest one.
		if live.Epoch != ins.Epoch || old.Epoch != before {
			return fmt.Errorf("%s: replies name epochs %d (live) and %d (as_of %d), want %d and %d",
				backend, live.Epoch, old.Epoch, before, ins.Epoch, before)
		}
		if len(live.Bindings["x"]) != len(old.Bindings["x"])+1 {
			return fmt.Errorf("%s: live %d vs as_of %d O bindings, want live = as_of + 1",
				backend, len(live.Bindings["x"]), len(old.Bindings["x"]))
		}
		counts[backend] = len(old.Bindings["x"])
	}
	if counts["auto"] != counts["path"] {
		return fmt.Errorf("as_of answers disagree across backends: %v", counts)
	}
	// The path executor's older names still run it, and say so.
	for _, alias := range []string{"asr", "graph"} {
		body, err := httpPost(base+"/v1/query", queryRequest{Query: q, Backend: alias})
		if err != nil {
			return fmt.Errorf("%s: %v", alias, err)
		}
		var resp queryResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		if resp.Backend != "path" {
			return fmt.Errorf("backend %q reported %q, want path", alias, resp.Backend)
		}
	}

	// Diff across the insert: exactly one O binding appeared.
	body, err = httpPost(base+"/v1/diff", diffRequest{Query: q, From: before, To: ins.Epoch})
	if err != nil {
		return err
	}
	var d diffResponse
	if err := json.Unmarshal(body, &d); err != nil {
		return err
	}
	if len(d.Appeared) != 1 || len(d.Disappeared) != 0 {
		return fmt.Errorf("diff: %d appeared / %d disappeared, want 1/0 (%v)", len(d.Appeared), len(d.Disappeared), d.Appeared)
	}

	// Error envelope: unknown route, a pre-/v1 path, unknown backend,
	// epoch out of range.
	for _, check := range []struct {
		status int
		code   string
		do     func() (int, []byte, error)
	}{
		{http.StatusNotFound, "not_found", func() (int, []byte, error) {
			return httpGetStatus(base + "/v2/query")
		}},
		{http.StatusNotFound, "not_found", func() (int, []byte, error) {
			return httpGetStatus(base + "/stats")
		}},
		{http.StatusBadRequest, "bad_request", func() (int, []byte, error) {
			return httpPostStatus(base+"/v1/query", queryRequest{Query: q, Backend: "quantum"})
		}},
		{http.StatusBadRequest, "bad_request", func() (int, []byte, error) {
			return httpPostStatus(base+"/v1/diff", diffRequest{Query: q, Backend: "quantum", From: before, To: ins.Epoch})
		}},
		{http.StatusBadRequest, "epoch_out_of_range", func() (int, []byte, error) {
			return httpPostStatus(base+"/v1/query", queryRequest{Query: q, AsOf: before + 1000})
		}},
	} {
		status, body, err := check.do()
		if err != nil {
			return err
		}
		var envelope apiError
		if err := json.Unmarshal(body, &envelope); err != nil {
			return fmt.Errorf("error response is not the JSON envelope: %s", body)
		}
		if status != check.status || envelope.Code != check.code {
			return fmt.Errorf("got %d %q, want %d %q", status, envelope.Code, check.status, check.code)
		}
	}
	return nil
}

// smokeDurable commits through a durable running example, kills the
// process state, reopens the directory, and checks the instance
// survived — the -data-dir path end to end.
func smokeDurable() error {
	dir, err := os.MkdirTemp("", "proqld-smoke-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	sys, err := buildSystem(0, 0, 0, "", 0, dir, 1, 0, 0)
	if err != nil {
		return err
	}
	if _, err := sys.Insert("A", model.Tuple{int64(3), "sn3", int64(9)}); err != nil {
		return err
	}
	wantRows := sys.Exchange().DB.TotalRows()
	wantEpoch := sys.Exchange().DB.Epoch()
	if err := sys.Close(); err != nil {
		return err
	}
	re, err := buildSystem(0, 0, 0, "", 0, dir, 1, 0, 0)
	if err != nil {
		return fmt.Errorf("reopen durable dir: %v", err)
	}
	defer re.Close()
	if got := re.Exchange().DB.TotalRows(); got != wantRows {
		return fmt.Errorf("recovered %d rows, want %d", got, wantRows)
	}
	if got := re.Exchange().DB.Epoch(); got < wantEpoch {
		return fmt.Errorf("recovered epoch %d regressed below %d", got, wantEpoch)
	}
	// The recovered instance serves queries immediately (warm attach).
	res, err := re.Query(`FOR [O $x] RETURN $x`)
	if err != nil {
		return err
	}
	if n := len(res.SortedRefs("x")); n != 5 {
		return fmt.Errorf("recovered O has %d tuples, want 5", n)
	}
	return nil
}

// recorder is a minimal ResponseWriter for in-process handler checks.
type recorder struct {
	status int
	hdr    http.Header
	body   bytes.Buffer
}

func newRecorder() *recorder { return &recorder{status: http.StatusOK, hdr: http.Header{}} }

func (r *recorder) Header() http.Header         { return r.hdr }
func (r *recorder) WriteHeader(code int)        { r.status = code }
func (r *recorder) Write(b []byte) (int, error) { return r.body.Write(b) }

func mustRequest(method, path string) *http.Request {
	req, err := http.NewRequest(method, "http://proqld.invalid"+path, nil)
	if err != nil {
		panic(err)
	}
	return req
}

func httpGet(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}

// httpGetStatus / httpPostStatus return the status code and body
// without treating non-200 as an error — for checking the envelope.
func httpGetStatus(url string) (int, []byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, body, nil
}

func httpPostStatus(url string, payload any) (int, []byte, error) {
	buf, err := json.Marshal(payload)
	if err != nil {
		return 0, nil, err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, body, nil
}

func httpPost(url string, payload any) ([]byte, error) {
	buf, err := json.Marshal(payload)
	if err != nil {
		return nil, err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST %s: %s: %s", url, resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}
