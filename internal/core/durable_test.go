package core_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/proql"
	"repro/internal/wal"
	"repro/internal/workload"
)

// durableChain opens a small chain setting over dir; rows inserted at
// the returned source relation propagate to A0.
func durableChain(t *testing.T, dir string, wopts wal.Options) (*core.System, workload.Config) {
	t.Helper()
	cfg := workload.Config{
		Topology:  workload.Chain,
		Profile:   workload.ProfileLinear,
		NumPeers:  4,
		DataPeers: workload.UpstreamDataPeers(4, 1),
		BaseSize:  20,
		Seed:      11,
	}
	set, st, err := workload.OpenDurable(cfg, dir, wopts)
	if err != nil {
		t.Fatal(err)
	}
	return core.WrapDurable(set.Sys, st), cfg
}

// churnRows returns n fresh rows for the setting's source relation.
func churnRows(sys *core.System, cfg workload.Config, n int) (string, []model.Tuple, [][]model.Datum) {
	source := workload.ARel(cfg.NumPeers - 1)
	template := sys.Exchange().DB.MustTable(source + "_l").Rows()[0]
	rows := make([]model.Tuple, n)
	keys := make([][]model.Datum, n)
	for i := range rows {
		row := append(model.Tuple(nil), template...)
		row[0] = int64(cfg.NumPeers-1)*10_000_000 + int64(cfg.BaseSize+i)
		rows[i], keys[i] = row, row[:1]
	}
	return source, rows, keys
}

// TestInsertIsOneCommit checks the one-batch insert against the two-call
// path it replaces: the same state on every backend, reached in one
// storage epoch and one log frame instead of two.
func TestInsertIsOneCommit(t *testing.T) {
	one, cfg := durableChain(t, t.TempDir(), wal.Options{})
	defer one.Close()
	two, _ := durableChain(t, t.TempDir(), wal.Options{})
	defer two.Close()
	source, rows, keys := churnRows(one, cfg, 3)
	q := proql.MustParse(`FOR [A0 $x] INCLUDE PATH [$x] <-+ [] RETURN $x`)
	// Bind the engine's shared adapter first, so the insert has one to
	// retire.
	if _, err := one.Engine().Exec(context.Background(), q, proql.Options{Backend: "graph"}); err != nil {
		t.Fatal(err)
	}

	epoch0, frames0 := one.Epoch(), one.Store().Stats().Frames
	epoch, err := one.Insert(source, rows...)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != epoch0+1 || one.Epoch() != epoch {
		t.Fatalf("Insert published epoch %d (newest %d), want %d", epoch, one.Epoch(), epoch0+1)
	}
	if got := one.Store().Stats().Frames - frames0; got != 1 {
		t.Fatalf("Insert logged %d frames, want 1", got)
	}
	frames0 = two.Store().Stats().Frames
	if err := two.InsertLocal(source, rows...); err != nil {
		t.Fatal(err)
	}
	if err := two.Run(); err != nil {
		t.Fatal(err)
	}
	if got := two.Store().Stats().Frames - frames0; got != 2 {
		t.Fatalf("InsertLocal+Run logged %d frames, want 2", got)
	}
	if got, want := fingerprint(one.Exchange()), fingerprint(two.Exchange()); got != want {
		t.Fatalf("Insert and InsertLocal+Run disagree\ngot:\n%s\nwant:\n%s", got, want)
	}
	for _, backend := range []string{"relational", "graph", "asr"} {
		a, err := one.Engine().Exec(context.Background(), q, proql.Options{Backend: backend})
		if err != nil {
			t.Fatal(err)
		}
		b, err := two.Engine().Exec(context.Background(), q, proql.Options{Backend: backend})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := fmt.Sprint(a.SortedRefs("x")), fmt.Sprint(b.SortedRefs("x")); got != want {
			t.Fatalf("%s: %s after Insert, %s after InsertLocal+Run", backend, got, want)
		}
	}
	if e, _, err := one.Delete(source, keys...); err != nil || e != epoch+1 {
		t.Fatalf("Delete published epoch %d (%v), want %d", e, err, epoch+1)
	}
}

// TestDurabilityLostRefusesWrites makes the store fail (its checkpoint
// cannot be written) and expects every later mutation to be refused
// with ErrDurabilityLost before it touches the instance, while queries
// keep answering.
func TestDurabilityLostRefusesWrites(t *testing.T) {
	dir := t.TempDir()
	sys, cfg := durableChain(t, dir, wal.Options{})
	defer sys.Close()
	source, rows, keys := churnRows(sys, cfg, 2)
	if _, err := sys.Insert(source, rows...); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "ckpt-1.ckpt.tmp", "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := sys.Checkpoint(); err == nil {
		t.Fatal("checkpoint over an unwritable temporary succeeded")
	}
	epoch, want := sys.Epoch(), fingerprint(sys.Exchange())
	if _, _, err := sys.Delete(source, keys...); !errors.Is(err, core.ErrDurabilityLost) {
		t.Fatalf("Delete after the store failed: %v, want ErrDurabilityLost", err)
	}
	if _, err := sys.Insert(source, rows...); !errors.Is(err, core.ErrDurabilityLost) {
		t.Fatalf("Insert after the store failed: %v, want ErrDurabilityLost", err)
	}
	if err := sys.InsertLocal(source, rows...); !errors.Is(err, core.ErrDurabilityLost) {
		t.Fatalf("InsertLocal after the store failed: %v, want ErrDurabilityLost", err)
	}
	if err := sys.Run(); !errors.Is(err, core.ErrDurabilityLost) {
		t.Fatalf("Run after the store failed: %v, want ErrDurabilityLost", err)
	}
	if sys.Epoch() != epoch || fingerprint(sys.Exchange()) != want {
		t.Fatal("a refused write changed the instance")
	}
	if _, err := sys.Query(`FOR [A0 $x] RETURN $x`); err != nil {
		t.Fatalf("query after the store failed: %v", err)
	}
}

// TestWriterThroughBackgroundCheckpoints runs the facade's write path
// through several background checkpoints with readers alongside (under
// -race), checks writers never queued behind a checkpoint for long, and
// reopens the directory to the same state.
func TestWriterThroughBackgroundCheckpoints(t *testing.T) {
	dir := t.TempDir()
	sys, cfg := durableChain(t, dir, wal.Options{CheckpointEvery: 4})
	source, rows, keys := churnRows(sys, cfg, 3)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, backend := range []string{"relational", "graph"} {
		wg.Add(1)
		go func(backend string) {
			defer wg.Done()
			q := proql.MustParse(`FOR [A0 $x] RETURN $x`)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := sys.Engine().Exec(context.Background(), q, proql.Options{Backend: backend}); err != nil {
					t.Errorf("%s: %v", backend, err)
					return
				}
			}
		}(backend)
	}
	for round := 0; round < 200 && (round < 20 || sys.Store().Stats().CheckpointsLanded < 3); round++ {
		if _, err := sys.Insert(source, rows...); err != nil {
			t.Fatal(err)
		}
		if round%2 == 0 {
			if _, _, err := sys.Delete(source, keys...); err != nil {
				t.Fatal(err)
			}
		} else if _, err := sys.DeleteLocal(source, keys[0], keys[1], keys[2]); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if st := sys.Store().Stats(); st.CheckpointsLanded < 3 {
		t.Fatalf("only %d background checkpoints landed: %+v", st.CheckpointsLanded, st)
	}
	if wait, hold := sys.WriteLockNS(); hold == 0 || wait > hold {
		t.Fatalf("write lock: waited %d ns, held %d ns with a single writer", wait, hold)
	}
	want, epoch := fingerprint(sys.Exchange()), sys.Epoch()
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	re, _ := durableChain(t, dir, wal.Options{})
	defer re.Close()
	if got := fingerprint(re.Exchange()); got != want {
		t.Fatalf("reopened instance differs\ngot:\n%s\nwant:\n%s", got, want)
	}
	if re.Epoch() != epoch {
		t.Fatalf("reopened at epoch %d, want %d", re.Epoch(), epoch)
	}
}
