package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/relstore"
)

func post(t *testing.T, h http.Handler, path string, payload any) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// TestWritesReportTheirEpoch has two clients write concurrently over
// HTTP: every reply's epoch is the one that write published — the rows
// are there AS OF it and not AS OF the epoch before — and an insert is
// a single epoch.
func TestWritesReportTheirEpoch(t *testing.T) {
	sys, err := buildSystem(0, 0, 0, "", 0, t.TempDir(), 1, 4, relstore.RetainAll)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	srv := newServer(sys, 30*time.Second, 16)
	h := srv.handler()
	type ack struct {
		id       int
		epoch    uint64
		inserted bool
	}
	var mu sync.Mutex
	var acks []ack
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for round := 0; round < 8; round++ {
				for _, insert := range []bool{true, false} {
					path, payload := "/v1/delete", any(deleteRequest{Relation: "A", Keys: [][]any{{id}}})
					if insert {
						path, payload = "/v1/insert", insertRequest{Relation: "A", Rows: [][]any{{id, "sn", 9}}}
					}
					code, body := post(t, h, path, payload)
					var r mutateResponse
					if err := json.Unmarshal(body, &r); code != http.StatusOK || err != nil || r.Applied != 1 {
						t.Errorf("%s: %d %s", path, code, body)
						return
					}
					mu.Lock()
					acks = append(acks, ack{id, r.Epoch, insert})
					mu.Unlock()
				}
			}
		}(10 + w)
	}
	wg.Wait()
	seen := map[uint64]bool{}
	for _, a := range acks {
		if seen[a.epoch] {
			t.Errorf("two writes reported epoch %d", a.epoch)
		}
		seen[a.epoch] = true
		for _, at := range []struct {
			epoch   uint64
			present bool
		}{{a.epoch, a.inserted}, {a.epoch - 1, !a.inserted}} {
			code, body := post(t, h, "/v1/query", queryRequest{
				Query: fmt.Sprintf("FOR [A $x] WHERE $x.id = %d RETURN $x", a.id), AsOf: at.epoch})
			var r queryResponse
			if err := json.Unmarshal(body, &r); code != http.StatusOK || err != nil {
				t.Fatalf("as of %d: %d %s", at.epoch, code, body)
			}
			if got := r.Count == 1; got != at.present {
				t.Errorf("write of %d reported epoch %d (inserted=%v), but as of %d present=%v", a.id, a.epoch, a.inserted, at.epoch, got)
			}
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var st statsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.WAL == nil || st.WAL.Frames < 32 || st.WAL.Syncs < st.WAL.Frames || st.WAL.CheckpointsStarted == 0 || st.WriteHoldNS == 0 {
		t.Errorf("stats after 32 durable writes: %s", rec.Body.Bytes())
	}
}

// TestSignalShutdownKeepsAcknowledgedWrites: with -sync-every 8 a write
// is acknowledged before its frame is synced, and -checkpoint-every 4
// starts background checkpoints while the clients write. Two clients
// write until a SIGTERM sent after the 60th acknowledgement shuts the
// daemon down: serve must return cleanly with no checkpoint left in
// flight, and the reopened store must hold every acknowledged write.
func TestSignalShutdownKeepsAcknowledgedWrites(t *testing.T) {
	dir := t.TempDir()
	sys, err := buildSystem(0, 0, 0, "", 0, dir, 8, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- serve(ln, newServer(sys, 30*time.Second, 16)) }()
	base := "http://" + ln.Addr().String()
	var mu sync.Mutex
	var acked []int
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				id := 1000 + 2*i + w
				if _, err := httpPost(base+"/v1/insert", insertRequest{Relation: "A", Rows: [][]any{{id, "sn", 9}}}); err != nil {
					return // the daemon has stopped accepting
				}
				mu.Lock()
				acked = append(acked, id)
				n := len(acked)
				mu.Unlock()
				if n == 60 {
					if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
						t.Error(err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if err := <-served; err != nil {
		t.Fatalf("serve after SIGTERM: %v", err)
	}
	st := sys.Store().Stats()
	if st.CheckpointInFlight {
		t.Errorf("a checkpoint is still in flight after shutdown: %+v", st)
	}
	re, err := buildSystem(0, 0, 0, "", 0, dir, 8, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	a := re.Exchange().DB.MustTable("A")
	for _, id := range acked {
		if _, ok := a.LookupKey([]model.Datum{int64(id)}); !ok {
			t.Errorf("acknowledged insert of A(%d) lost across the shutdown", id)
		}
	}
	t.Logf("%d acknowledged writes survived; %d frames, %d syncs, %d checkpoints", len(acked), st.Frames, st.Syncs, st.CheckpointsLanded)
}

// TestOnlyV1Routes: the pre-/v1 paths are not served; each answers
// 404 with the JSON error envelope.
func TestOnlyV1Routes(t *testing.T) {
	sys, err := buildSystem(0, 0, 0, "", 0, "", 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	h := newServer(sys, 30*time.Second, 16).handler()
	for _, path := range []string{"/healthz", "/stats", "/query", "/insert", "/delete"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		var envelope apiError
		if err := json.Unmarshal(rec.Body.Bytes(), &envelope); err != nil || rec.Code != http.StatusNotFound || envelope.Code != "not_found" {
			t.Errorf("GET %s: %d %s, want 404 not_found", path, rec.Code, rec.Body.Bytes())
		}
	}
}

// TestUnknownBackendIs400: /v1/query and /v1/diff answer a backend name
// the engine does not know with 400 bad_request, naming the backends it
// does; a known one is served.
func TestUnknownBackendIs400(t *testing.T) {
	sys, err := buildSystem(0, 0, 0, "", 0, "", 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	h := newServer(sys, 30*time.Second, 16).handler()
	const q = "FOR [O $x] RETURN $x"
	epoch := sys.Exchange().DB.Epoch()
	for path, req := range map[string]any{
		"/v1/query": queryRequest{Query: q, Backend: "quantum"},
		"/v1/diff":  diffRequest{Query: q, Backend: "quantum", From: epoch, To: epoch},
	} {
		code, body := post(t, h, path, req)
		var envelope apiError
		if err := json.Unmarshal(body, &envelope); err != nil || code != http.StatusBadRequest ||
			envelope.Code != "bad_request" || !strings.Contains(envelope.Error, "auto") {
			t.Errorf("%s with backend quantum: %d %s, want 400 bad_request naming auto", path, code, body)
		}
	}
	if code, body := post(t, h, "/v1/diff", diffRequest{Query: q, Backend: "auto", From: epoch, To: epoch}); code != http.StatusOK {
		t.Errorf("diff on auto: %d %s", code, body)
	}
}

// TestRequestBodyBound: a POST body over maxBodyBytes is refused on
// every route with 413 request_too_large, one of exactly maxBodyBytes
// is decoded (and then fails on its merits), and the server keeps
// serving.
func TestRequestBodyBound(t *testing.T) {
	sys, err := buildSystem(0, 0, 0, "", 0, "", 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	h := newServer(sys, 30*time.Second, 16).handler()
	send := func(path string, body []byte) (int, apiError) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		var envelope apiError
		if err := json.Unmarshal(rec.Body.Bytes(), &envelope); err != nil {
			t.Fatalf("%s: reply is not the error envelope: %.200s", path, rec.Body.Bytes())
		}
		return rec.Code, envelope
	}
	padded := func(size int) []byte {
		return []byte(`{"query":"` + strings.Repeat("x", size-len(`{"query":""}`)) + `"}`)
	}
	for _, path := range []string{"/v1/query", "/v1/diff", "/v1/insert", "/v1/delete"} {
		if code, e := send(path, padded(maxBodyBytes+1)); code != http.StatusRequestEntityTooLarge || e.Code != "request_too_large" {
			t.Errorf("%s with %d bytes: %d %+v, want 413 request_too_large", path, maxBodyBytes+1, code, e)
		}
	}
	if code, e := send("/v1/query", padded(maxBodyBytes)); code != http.StatusBadRequest || e.Code != "bad_request" {
		t.Errorf("query of exactly %d bytes: %d %+v, want 400 bad_request (a parse error)", maxBodyBytes, code, e)
	}
	if code, body := post(t, h, "/v1/query", queryRequest{Query: "FOR [O $x] RETURN $x"}); code != http.StatusOK {
		t.Errorf("query after oversized requests: %d %s", code, body)
	}
}

// TestDurabilityLostIs503 fails the store (its checkpoint cannot be
// written): writes get 503 durability_lost from then on, reads and
// stats keep answering.
func TestDurabilityLostIs503(t *testing.T) {
	dir := t.TempDir()
	sys, err := buildSystem(0, 0, 0, "", 0, dir, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	h := newServer(sys, 30*time.Second, 16).handler()
	if code, body := post(t, h, "/v1/insert", insertRequest{Relation: "A", Rows: [][]any{{3, "sn3", 9}}}); code != http.StatusOK {
		t.Fatalf("insert: %d %s", code, body)
	}
	if err := os.MkdirAll(filepath.Join(dir, "ckpt-1.ckpt.tmp", "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := sys.Checkpoint(); err == nil {
		t.Fatal("checkpoint over an unwritable temporary succeeded")
	}
	for path, payload := range map[string]any{
		"/v1/insert": insertRequest{Relation: "A", Rows: [][]any{{4, "sn4", 9}}},
		"/v1/delete": deleteRequest{Relation: "A", Keys: [][]any{{3}}},
	} {
		code, body := post(t, h, path, payload)
		var envelope apiError
		if err := json.Unmarshal(body, &envelope); err != nil || code != http.StatusServiceUnavailable || envelope.Code != "durability_lost" {
			t.Errorf("%s after the store failed: %d %s", path, code, body)
		}
	}
	if code, body := post(t, h, "/v1/query", queryRequest{Query: "FOR [O $x] RETURN $x"}); code != http.StatusOK {
		t.Errorf("query after the store failed: %d %s", code, body)
	}
}
