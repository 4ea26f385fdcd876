package core_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/exchange"
	"repro/internal/model"
	"repro/internal/proql"
	"repro/internal/relstore"
	"repro/internal/workload"
)

// fingerprint renders the committed public state of a system (or a
// snapshot view of one) deterministically: every public relation's
// sorted rows. Two equal fingerprints observed the same epoch.
func fingerprint(ex *exchange.System) string {
	var sb strings.Builder
	for _, r := range ex.Schema.PublicRelations() {
		t, ok := ex.DB.Table(r.Name)
		if !ok {
			continue
		}
		sb.WriteString(r.Name)
		sb.WriteByte(':')
		for _, row := range t.SortedRows() {
			sb.WriteString(model.EncodeDatums(row))
			sb.WriteByte(';')
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// churnStep is one commit of the mixed workload: insert a fresh animal
// (and its non-canonical name) and run exchange, or delete it again.
func churnStep(t *testing.T, sys *core.System, id int64, insert bool) {
	t.Helper()
	if insert {
		if err := sys.InsertLocal("A", model.Tuple{id, fmt.Sprintf("sn%d", id), id}); err != nil {
			t.Error(err)
			return
		}
		if err := sys.InsertLocal("N", model.Tuple{id, fmt.Sprintf("cn%d", id), false}); err != nil {
			t.Error(err)
			return
		}
		if err := sys.Run(); err != nil {
			t.Error(err)
		}
		return
	}
	if _, err := sys.DeleteLocal("A", []model.Datum{id}); err != nil {
		t.Error(err)
		return
	}
	if _, err := sys.DeleteLocal("N", []model.Datum{id, fmt.Sprintf("cn%d", id), false}); err != nil {
		t.Error(err)
	}
}

// TestConcurrentServeSmoke drives readers on all three ProQL backends
// (relational, graph, asr) against a RunDelta+DeleteLocal churn
// writer. Every query must observe a committed epoch: with the churn
// toggling one extra animal, the O relation holds either 4 or 6
// bindings — any other count is a torn read. Run under -race this is
// the whole-suite concurrent serve smoke.
func TestConcurrentServeSmoke(t *testing.T) {
	sys := openExample(t)
	eng := sys.Engine()
	q, err := proql.Parse(`FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x`)
	if err != nil {
		t.Fatal(err)
	}

	const readers = 6
	const itersPerReader = 30
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(mode int) {
			defer wg.Done()
			for n := 0; n < itersPerReader; n++ {
				var res *proql.Result
				var err error
				switch mode % 3 {
				case 0:
					res, err = eng.Exec(context.Background(), q, proql.Options{})
				case 1:
					res, err = eng.Exec(context.Background(), q, proql.Options{Backend: "graph"})
				default:
					res, err = eng.Exec(context.Background(), q, proql.Options{Backend: "asr"})
				}
				if err != nil {
					t.Errorf("reader %d: %v", mode, err)
					return
				}
				if got := len(res.SortedRefs("x")); got != 4 && got != 6 {
					t.Errorf("reader %d (backend %d): O bindings = %d, want 4 or 6 (torn read)", mode, mode%3, got)
					return
				}
			}
		}(i)
	}
	// Churn writer: one goroutine (mutations serialize internally, but
	// the single-writer shape mirrors the paper's per-peer engine).
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for round := 0; round < 8; round++ {
			churnStep(t, sys, 3, true)
			churnStep(t, sys, 3, false)
		}
	}()
	wg.Wait()
	<-stop

	// The system must land in the base state and still answer queries.
	res, err := sys.Query(`FOR [O $x] RETURN $x`)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.SortedRefs("x")); got != 4 {
		t.Errorf("final O bindings = %d, want 4", got)
	}
}

// TestSnapshotReaderVsSerializedOracle is the differential test of the
// snapshot guarantee: a reader that pinned a snapshot before a
// RunDelta/DeleteLocal commit keeps observing exactly the pre-commit
// state, byte for byte, while the live system advances — and every
// state the live system publishes matches the one a serialized oracle
// (same commits, no concurrency) produces.
func TestSnapshotReaderVsSerializedOracle(t *testing.T) {
	live := openExample(t)
	oracle := openExample(t)

	type step struct {
		insert bool
		id     int64
	}
	script := []step{
		{insert: true, id: 3},
		{insert: true, id: 4},
		{insert: false, id: 3},
		{insert: false, id: 4},
	}

	// The oracle runs the script serially, recording the fingerprint
	// after every commit.
	want := []string{fingerprint(oracle.Exchange())}
	for _, st := range script {
		churnStep(t, oracle, st.id, st.insert)
		want = append(want, fingerprint(oracle.Exchange()))
	}

	// The live system runs the same script; before each commit a reader
	// pins a snapshot and verifies — after the commit published — that
	// it still reads the pre-commit state the oracle recorded.
	for i, st := range script {
		snap, release := live.Exchange().Snapshot()
		pre := fingerprint(snap)
		if pre != want[i] {
			t.Fatalf("step %d: pre-commit snapshot diverges from oracle state %d", i, i)
		}
		churnStep(t, live, st.id, st.insert)
		if got := fingerprint(snap); got != pre {
			t.Errorf("step %d: snapshot changed under the commit:\npre:  %q\npost: %q", i, pre, got)
		}
		release()
		if got := fingerprint(live.Exchange()); got != want[i+1] {
			t.Errorf("step %d: live state diverges from serialized oracle", i)
		}
	}
}

// TestReportedEpochReplays: Stats.Epoch names the storage epoch a query
// read, on every backend, under a concurrent writer. While a writer
// inserts and deletes rows that propagate down a chain to the queried
// relation — retiring the engine's asr adapter with every commit —
// readers run a key-pinned point query on one of
// the churned keys and a whole-relation query on all three backends and
// record the bindings with the reported epoch. Afterwards every record
// must replay: the same query AS OF that epoch returns those bindings.
// (An epoch read from the database after the query returned, which is
// what the daemon used to report, names a later commit than the one the
// query saw as soon as the writer gets in between.) The same holds for
// writes: two writers commit concurrently, and every acknowledged
// insert is visible AS OF the epoch it reported and absent AS OF the
// epoch before, every delete the reverse — the epoch a write reports is
// the one it published, not whatever is newest when the call returns.
func TestReportedEpochReplays(t *testing.T) {
	cfg := workload.Config{
		Topology:  workload.Chain,
		Profile:   workload.ProfileLinear,
		NumPeers:  4,
		DataPeers: workload.UpstreamDataPeers(4, 1),
		BaseSize:  20,
		Seed:      11,
	}
	set, err := workload.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	set.Sys.DB.SetRetention(relstore.RetainAll)
	sys := core.Wrap(set.Sys)
	eng := sys.Engine()
	source := workload.ARel(cfg.NumPeers - 1)
	template := set.Sys.DB.MustTable(source + "_l").Rows()[0]
	const writers = 2
	var churnedBy [writers][]model.Tuple
	for w := range churnedBy {
		for i := 0; i < 3; i++ {
			row := append(model.Tuple(nil), template...)
			row[0] = int64(cfg.NumPeers-1)*10_000_000 + int64(cfg.BaseSize+3*w+i)
			churnedBy[w] = append(churnedBy[w], row)
		}
	}
	churned := churnedBy[0]
	queries := []*proql.Query{
		proql.MustParse(fmt.Sprintf(`FOR [A0 $x] WHERE $x.k = %v INCLUDE PATH [$x] <-+ [] RETURN $x`, churned[1][0])),
		proql.MustParse(`FOR [A0 $x] RETURN $x`),
	}

	type observation struct {
		query int
		epoch uint64
	}
	var mu sync.Mutex
	seen := map[observation]string{}
	// Every reader answers both queries before the writer starts and
	// once more after it finished, so at least two epochs are observed.
	const readers = 6
	var wg, started sync.WaitGroup
	writerDone := make(chan struct{})
	started.Add(readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var once sync.Once
			defer once.Do(started.Done) // also when a failure ends the reader early
			backend := []string{"relational", "graph", "asr"}[r%3]
			last := false
			for n := 0; !last || n%len(queries) != 0; n++ {
				if n == len(queries) {
					once.Do(started.Done)
				}
				select {
				case <-writerDone:
					last = true
				default:
				}
				qi := n % len(queries)
				res, err := eng.Exec(context.Background(), queries[qi], proql.Options{Backend: backend})
				if err != nil {
					t.Errorf("%s: %v", backend, err)
					return
				}
				if res.Stats.Epoch == 0 || res.Stats.Epoch > sys.Epoch() {
					t.Errorf("%s: reported epoch %d, newest is %d", backend, res.Stats.Epoch, sys.Epoch())
					return
				}
				got := fmt.Sprint(res.SortedRefs("x"))
				ob := observation{qi, res.Stats.Epoch}
				mu.Lock()
				prev, dup := seen[ob]
				seen[ob] = got
				mu.Unlock()
				if dup && prev != got {
					t.Errorf("%s: query %d at epoch %d: %s, another reader saw %s", backend, qi, ob.epoch, got, prev)
					return
				}
			}
		}(r)
	}
	// write is one acknowledged commit of a writer: the epoch it
	// reported and whether its rows are in or out from then on.
	type write struct {
		writer   int
		epoch    uint64
		inserted bool
	}
	var writes []write
	var writersWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			started.Wait()
			rows := churnedBy[w]
			keys := make([][]model.Datum, len(rows))
			for i, row := range rows {
				keys[i] = row[:1]
			}
			for round := 0; round < 6; round++ {
				e, err := sys.Insert(source, rows...)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				writes = append(writes, write{w, e, true})
				mu.Unlock()
				if e, _, err = sys.Delete(source, keys...); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				writes = append(writes, write{w, e, false})
				mu.Unlock()
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		writersWG.Wait()
		close(writerDone)
	}()
	wg.Wait()

	// Each write reported the epoch it published: its effect is there
	// AS OF that epoch and not AS OF the one before.
	reported := map[uint64]bool{}
	for _, wr := range writes {
		if reported[wr.epoch] {
			t.Errorf("two writes reported epoch %d", wr.epoch)
		}
		reported[wr.epoch] = true
		q := fmt.Sprintf(`FOR [A0 $x] WHERE $x.k = %v RETURN $x`, churnedBy[wr.writer][0][0])
		for _, at := range []struct {
			epoch   uint64
			present bool
		}{{wr.epoch, wr.inserted}, {wr.epoch - 1, !wr.inserted}} {
			res, err := sys.QueryAsOf(q, at.epoch)
			if err != nil {
				t.Fatalf("writer %d, as of %d: %v", wr.writer, at.epoch, err)
			}
			if got := len(res.SortedRefs("x")) == 1; got != at.present {
				t.Errorf("writer %d reported epoch %d for inserted=%v, but as of %d its row is present=%v",
					wr.writer, wr.epoch, wr.inserted, at.epoch, got)
			}
		}
	}
	if len(writes) != writers*12 {
		t.Errorf("%d acknowledged writes, want %d", len(writes), writers*12)
	}

	epochs := map[uint64]bool{}
	for ob, got := range seen {
		epochs[ob.epoch] = true
		res, err := eng.Exec(context.Background(), queries[ob.query], proql.Options{AsOfEpoch: ob.epoch})
		if err != nil {
			t.Fatalf("replay of query %d as of %d: %v", ob.query, ob.epoch, err)
		}
		if want := fmt.Sprint(res.SortedRefs("x")); got != want {
			t.Errorf("query %d reported epoch %d and bindings %s; as of that epoch the answer is %s", ob.query, ob.epoch, got, want)
		}
	}
	if len(epochs) < 2 {
		t.Errorf("readers observed %d distinct epochs, want the first and the last at least", len(epochs))
	}
}
