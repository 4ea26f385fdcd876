package workload

import "testing"

// TestRunServeSmall exercises the E15 harness end to end at a tiny
// scale: all three backends, two reader counts, real churn. Under
// -race this doubles as a concurrency check on the whole serving
// stack (facade writer lock, snapshot reads, ASR adapter refcounting
// and retiring).
func TestRunServeSmall(t *testing.T) {
	rows, err := RunServe([]int{1, 2}, 4, 1, 20, 4, 5, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("got %d rows, want 6 (2 reader counts x 3 backends)", len(rows))
	}
	for _, r := range rows {
		if r.Errors != 0 {
			t.Errorf("%s/%d readers: %d read errors, want 0", r.Backend, r.Readers, r.Errors)
		}
		if r.Queries != r.Readers*5 {
			t.Errorf("%s/%d readers: %d queries, want %d", r.Backend, r.Readers, r.Queries, r.Readers*5)
		}
		if r.P50 <= 0 || r.P99 < r.P50 || r.Max < r.P99 || r.SoloP50 <= 0 {
			t.Errorf("%s/%d readers: implausible latencies %+v", r.Backend, r.Readers, r)
		}
	}
}
