package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one completed request as the client saw it.
type sample struct {
	class      class
	start, end time.Duration // since the phase began
	server     time.Duration // the response's elapsed_ns (queries)
	bytes      int
	ok         bool
}

// churnState is what the writer knows about the churned keys, shared
// with the reader of mixed-churn: ver is odd while a write is in flight
// and even once it is acknowledged, present says which state the last
// acknowledged write left. A read that saw the same even ver before it
// was sent and after it returned must observe exactly that state.
type churnState struct {
	ver     atomic.Int64
	present atomic.Bool
}

// client is one closed-loop caller: it sends the next request of its
// stream only after the previous reply arrived.
type client struct {
	stream    stream
	i         int // next op of the stream; carries over from warm-up to window
	hc        *http.Client
	base      string
	or        *oracle
	churn     *churnState
	lastEpoch uint64    // writer: acknowledged epochs must strictly increase
	wal       *walWatch // durable writer: log growth per acknowledged write
	samples   []sample
	rounds    int
	firstErr  string
}

type queryReply struct {
	Bindings  map[string][]string `json:"bindings"`
	ElapsedNS int64               `json:"elapsed_ns"`
}

type writeReply struct {
	Applied int    `json:"applied"`
	Epoch   uint64 `json:"epoch"`
}

func (o op) request() (path string, body []byte) {
	var payload any
	switch o.class {
	case cInsert:
		path, payload = "/v1/insert", map[string]any{"relation": o.rel, "rows": o.rows}
	case cDelete:
		keys := make([][]int64, len(o.keys))
		for i, k := range o.keys {
			keys[i] = []int64{k}
		}
		path, payload = "/v1/delete", map[string]any{"relation": o.rel, "keys": keys}
	default:
		path, payload = "/v1/query", map[string]string{"query": o.query, "backend": o.backend}
	}
	body, _ = json.Marshal(payload) // maps of strings and integers cannot fail to encode
	return path, body
}

// post sends one request and returns the reply body of a 200.
func post(hc *http.Client, base string, o op) ([]byte, error) {
	path, body := o.request()
	resp, err := hc.Post(base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s: %s", path, resp.Status, bytes.TrimSpace(raw))
	}
	return raw, nil
}

// do issues one op and checks the answer; any error is a failed op.
func (c *client) do(o op, t0 time.Time) {
	var verBefore int64
	var presentBefore bool
	if o.class == cRange {
		verBefore, presentBefore = c.churn.ver.Load(), c.churn.present.Load()
	} else if !o.class.isQuery() {
		c.churn.ver.Add(1)
	}
	s := sample{class: o.class, start: time.Since(t0)}
	raw, err := post(c.hc, c.base, o)
	s.end = time.Since(t0)
	s.bytes = len(raw)
	if err == nil {
		s.server, err = c.check(o, raw, verBefore, presentBefore)
	}
	if !o.class.isQuery() {
		if err == nil {
			c.churn.present.Store(o.class == cInsert)
			if c.wal != nil {
				c.wal.observe()
			}
		}
		c.churn.ver.Add(1)
	}
	s.ok = err == nil
	if err != nil && c.firstErr == "" {
		c.firstErr = fmt.Sprintf("op %d: %v", c.i, err)
	}
	c.samples = append(c.samples, s)
}

func (c *client) check(o op, raw []byte, verBefore int64, presentBefore bool) (time.Duration, error) {
	if !o.class.isQuery() {
		var r writeReply
		if err := json.Unmarshal(raw, &r); err != nil {
			return 0, err
		}
		if r.Applied != churnBatch {
			return 0, fmt.Errorf("applied %d, want %d", r.Applied, churnBatch)
		}
		if r.Epoch <= c.lastEpoch {
			return 0, fmt.Errorf("epoch %d after %d: not strictly increasing", r.Epoch, c.lastEpoch)
		}
		c.lastEpoch = r.Epoch
		return 0, nil
	}
	var r queryReply
	if err := json.Unmarshal(raw, &r); err != nil {
		return 0, err
	}
	server := time.Duration(r.ElapsedNS)
	if o.class != cRange {
		if !sameBindings(r.Bindings, o.want) {
			return server, fmt.Errorf("wrong answer to %q on %s: %d bindings", o.query, o.backend, len(r.Bindings["x"]))
		}
		return server, nil
	}
	// Snapshot isolation: a write's rows are visible all together or not
	// at all, and an acknowledged write is visible to every later read.
	all := sameBindings(r.Bindings, map[string][]string{"x": c.or.churnRefs})
	if !all && len(r.Bindings) != 0 {
		return server, fmt.Errorf("torn read of the churned keys: %v", r.Bindings["x"])
	}
	if verBefore%2 == 0 && c.churn.ver.Load() == verBefore && all != presentBefore {
		return server, fmt.Errorf("read between acknowledged writes saw present=%v, want %v", all, presentBefore)
	}
	return server, nil
}

// runPhase runs every client for at least d and at least minRounds
// rounds; each client stops at the end of a round, so a phase holds only
// whole rounds. It returns when every client has stopped.
func runPhase(cs []*client, d time.Duration, minRounds int) time.Duration {
	t0 := time.Now()
	var wg sync.WaitGroup
	for _, c := range cs {
		c.samples, c.rounds = c.samples[:0], 0
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for c.rounds < minRounds || time.Since(t0) < d {
				for k := 0; k < c.stream.rot; k++ {
					c.do(c.stream.next(c.i), t0)
					c.i++
				}
				c.rounds++
			}
		}(c)
	}
	wg.Wait()
	return time.Since(t0)
}

// walWatch follows the durable daemon's data directory from outside:
// after each acknowledged write it reads the live log segment's size.
// A write that finds a new segment triggered a checkpoint; its bytes
// went to the segment the checkpoint removed, so it counts as a
// rotation and not towards the bytes per commit.
type walWatch struct {
	dir       string
	gen       uint64
	size      int64
	seen      bool
	grown     int64
	commits   int64
	rotations int64
}

func (w *walWatch) observe() {
	ents, err := os.ReadDir(w.dir)
	if err != nil {
		return
	}
	var gen uint64
	var size int64
	found := false
	for _, e := range ents {
		var g uint64
		if n, _ := fmt.Sscanf(e.Name(), "wal-%d.log", &g); n != 1 || (found && g < gen) {
			continue
		}
		if info, err := e.Info(); err == nil {
			gen, size, found = g, info.Size(), true
		}
	}
	if !found {
		return
	}
	switch {
	case !w.seen:
	case gen == w.gen:
		w.grown += size - w.size
		w.commits++
	default:
		w.rotations++
	}
	w.gen, w.size, w.seen = gen, size, true
}
