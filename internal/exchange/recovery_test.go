package exchange_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/exchange"
	"repro/internal/model"
	"repro/internal/wal"
)

// The crash-recovery differential: a durable system killed at an
// arbitrary point — between committed batches or mid-append (torn log
// tail) — then reopened and driven through the remaining workload must
// end byte-identical to a never-crashed in-memory system that executed
// the whole workload: same instance (every table).
//
// Each script op commits exactly one logged batch, so a kill "inside"
// op i recovers the state after op i-1 and the driver re-applies ops
// i..n — the crash-and-continue discipline a real peer follows. Every
// reopen must equal a committed prefix of the oracle's history that
// holds every acknowledged commit.

// recoveryOp is one scripted mutation. Ops must be deterministic and
// commit exactly one batch.
type recoveryOp struct {
	name  string
	apply func(sys *exchange.System) error
}

func insOp(rel string, vals ...int64) recoveryOp {
	rows := make([]model.Tuple, len(vals))
	for i, v := range vals {
		rows[i] = model.Tuple{v}
	}
	return recoveryOp{
		name:  fmt.Sprintf("insert %s%v", rel, vals),
		apply: func(sys *exchange.System) error { return sys.InsertLocal(rel, rows...) },
	}
}

func runOp() recoveryOp {
	return recoveryOp{name: "run", apply: func(sys *exchange.System) error {
		_, err := sys.RunDelta()
		return err
	}}
}

func delOp(rel string, key int64) recoveryOp {
	return recoveryOp{
		name: fmt.Sprintf("delete %s[%d]", rel, key),
		apply: func(sys *exchange.System) error {
			_, err := sys.DeleteLocal(rel, []model.Datum{key})
			return err
		},
	}
}

// recoveryScript drives the P⇄Q / R→P cycle schema through inserts,
// delta runs, and propagated deletions.
func recoveryScript() []recoveryOp {
	return []recoveryOp{
		insOp("R", 0, 1, 2),
		insOp("P", 1),
		runOp(),
		insOp("Q", 1, 2),
		runOp(),
		insOp("R", 3, 4),
		runOp(),
		delOp("R", 1),
		insOp("Q", 5),
		runOp(),
		delOp("Q", 2),
		insOp("R", 6),
		runOp(),
	}
}

func cycleSchema(t *testing.T) *model.Schema {
	t.Helper()
	schema := model.NewSchema()
	cols := []model.Column{{Name: "x", Type: model.TypeInt}}
	for _, name := range []string{"P", "Q", "R"} {
		if err := schema.AddRelation(model.MustRelation(name, cols, "x")); err != nil {
			t.Fatal(err)
		}
	}
	v := model.V
	for _, m := range []*model.Mapping{
		model.NewMapping("mRP", model.NewAtom("P", v("x")), model.NewAtom("R", v("x"))),
		model.NewMapping("mPQ", model.NewAtom("Q", v("x")), model.NewAtom("P", v("x"))),
		model.NewMapping("mQP", model.NewAtom("P", v("x")), model.NewAtom("Q", v("x"))),
	} {
		if err := schema.AddMapping(m); err != nil {
			t.Fatal(err)
		}
	}
	return schema
}

func instanceSignature(sys *exchange.System) string {
	sig := ""
	for _, name := range sys.DB.TableNames() {
		sig += name + ":"
		for _, row := range sys.DB.MustTable(name).SortedRows() {
			sig += model.EncodeDatums(row) + ";"
		}
		sig += "\n"
	}
	return sig
}

// crashImage copies the data directory's files into a fresh one: what
// a kill at this instant leaves behind. Every commit is written to its
// log before it returns, so an image taken between commits holds
// exactly the batches committed so far (SIGKILL loses no page cache);
// the store that keeps running on the original directory is closed by
// the caller.
func crashImage(t *testing.T, dir string) string {
	t.Helper()
	img := t.TempDir()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(img, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return img
}

// tearLastFrame rewrites image after so that the one log frame it holds
// beyond image before is torn: its first byte reached the disk, the
// rest of it still reads as before. An op that logged nothing (a run
// with no pending rows) skips the test.
func tearLastFrame(t *testing.T, before, after string) {
	t.Helper()
	logs, err := filepath.Glob(filepath.Join(after, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range logs {
		now, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		was, err := os.ReadFile(filepath.Join(before, filepath.Base(path)))
		if err != nil {
			continue // the next segment, put in place between the images
		}
		was = append(was, make([]byte, max(0, len(now)-len(was)))...)
		for d := range now {
			if now[d] != was[d] {
				copy(now[d+1:], was[d+1:])
				if err := os.WriteFile(path, now, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
		}
	}
	t.Skip("the op appended nothing to tear")
}

// copyFile copies one file between crash images under a new name.
func copyFile(t *testing.T, from, to string) {
	t.Helper()
	data, err := os.ReadFile(from)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(to, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// oraclePrefixes runs the script on a never-crashed in-memory system
// and returns the instance signature after every prefix of it.
func oraclePrefixes(t *testing.T, ops []recoveryOp) (sigs []string) {
	t.Helper()
	oracle, err := exchange.NewSystem(cycleSchema(t), exchange.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sigs = append(sigs, instanceSignature(oracle))
	for _, op := range ops {
		if err := op.apply(oracle); err != nil {
			t.Fatalf("oracle %s: %v", op.name, err)
		}
		sigs = append(sigs, instanceSignature(oracle))
	}
	return sigs
}

// recoverAndResume reopens a crash image, requires exactly the state
// after the first resume ops — a committed prefix holding every
// acknowledged commit — then applies the rest of the script and
// requires the never-crashed oracle's final state.
func recoverAndResume(t *testing.T, img string, ops []recoveryOp, resume int, sigs []string) {
	t.Helper()
	rec, st, err := exchange.OpenDurable(cycleSchema(t), img, wal.Options{}, exchange.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got := instanceSignature(rec); got != sigs[resume] {
		t.Fatalf("recovered instance is not the state after %d ops\ngot:\n%s\nwant:\n%s", resume, got, sigs[resume])
	}
	for i := resume; i < len(ops); i++ {
		if err := ops[i].apply(rec); err != nil {
			t.Fatalf("resumed %s: %v", ops[i].name, err)
		}
	}
	if got := instanceSignature(rec); got != sigs[len(ops)] {
		t.Fatalf("resumed instance differs from never-crashed oracle\ngot:\n%s\nwant:\n%s", got, sigs[len(ops)])
	}
	if err := rec.JournalsMirrorTables(); err != nil {
		t.Fatalf("recovered journals do not mirror tables: %v", err)
	}
}

func TestCrashRecoveryDifferential(t *testing.T) {
	ops := recoveryScript()
	sigs := oraclePrefixes(t, ops)

	for k := 0; k <= len(ops); k++ {
		for _, torn := range []bool{false, true} {
			if torn && k == 0 {
				continue // nothing on disk to tear yet
			}
			t.Run(fmt.Sprintf("crash=%d/torn=%v", k, torn), func(t *testing.T) {
				dir := t.TempDir()
				sys, st, err := exchange.OpenDurable(cycleSchema(t), dir, wal.Options{}, exchange.Options{})
				if err != nil {
					t.Fatal(err)
				}
				defer st.Close()
				var before string
				for i := 0; i < k; i++ {
					if i == k-1 && torn {
						before = crashImage(t, dir)
					}
					if err := ops[i].apply(sys); err != nil {
						t.Fatalf("%s: %v", ops[i].name, err)
					}
				}
				// Kill: the image is what the process leaves behind.
				img := crashImage(t, dir)
				resume := k
				if torn {
					// Tear op k-1's batch, forcing recovery back to op
					// k-2's state.
					tearLastFrame(t, before, img)
					resume = k - 1
				}
				recoverAndResume(t, img, ops, resume, sigs)
			})
		}
	}
}

// TestCrashAtRotationSteps kills the store at each step of a
// checkpoint's rotation — after appends moved to the next log but
// before the checkpoint landed, halfway through the checkpoint's
// temporary file, after its rename but before the old generation was
// retired — and on the first frame written into a recycled segment
// whose old contents are a complete valid log. The images are composed
// from the directory at rest before and after the step: each file is
// written by one step only.
func TestCrashAtRotationSteps(t *testing.T) {
	ops := recoveryScript()
	sigs := oraclePrefixes(t, ops)
	dir := t.TempDir()
	sys, st, err := exchange.OpenDurable(cycleSchema(t), dir, wal.Options{}, exchange.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	done := 0
	apply := func(n int) {
		for ; n > 0; n, done = n-1, done+1 {
			if err := ops[done].apply(sys); err != nil {
				t.Fatalf("%s: %v", ops[done].name, err)
			}
		}
	}
	checkpoint := func() {
		if err := st.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	file := func(img, name string) string { return filepath.Join(img, name) }

	apply(3)
	checkpoint() // ckpt-1; wal-1 live, wal-2 next
	apply(3)
	a := crashImage(t, dir) // at rest in generation 1
	checkpoint()            // ckpt-2; wal-2 live, wal-3 next: the recycled wal-1
	apply(3)
	b := crashImage(t, dir) // at rest in generation 2, three ops in
	for _, name := range []string{"ckpt-1.ckpt", "wal-1.log", "wal-2.log"} {
		if _, err := os.Stat(file(a, name)); err != nil {
			t.Fatalf("image of generation 1: %v", err)
		}
	}
	for _, name := range []string{"ckpt-2.ckpt", "wal-2.log", "wal-3.log"} {
		if _, err := os.Stat(file(b, name)); err != nil {
			t.Fatalf("image of generation 2: %v", err)
		}
	}

	t.Run("switched", func(t *testing.T) {
		// Appends moved to wal-2 and three commits landed there; the
		// checkpoint that would cover wal-1 never did.
		img := crashImage(t, a)
		copyFile(t, file(b, "wal-2.log"), file(img, "wal-2.log"))
		recoverAndResume(t, img, ops, done, sigs)
	})
	t.Run("mid-checkpoint", func(t *testing.T) {
		img := crashImage(t, a)
		copyFile(t, file(b, "wal-2.log"), file(img, "wal-2.log"))
		tmp := file(img, "ckpt-2.ckpt.tmp")
		copyFile(t, file(b, "ckpt-2.ckpt"), tmp)
		fi, err := os.Stat(tmp)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(tmp, fi.Size()/2); err != nil {
			t.Fatal(err)
		}
		recoverAndResume(t, img, ops, done, sigs)
	})
	t.Run("renamed-not-retired", func(t *testing.T) {
		// ckpt-2 is in place next to everything of generation 1.
		img := crashImage(t, a)
		copyFile(t, file(b, "wal-2.log"), file(img, "wal-2.log"))
		copyFile(t, file(b, "ckpt-2.ckpt"), file(img, "ckpt-2.ckpt"))
		recoverAndResume(t, img, ops, done, sigs)
	})

	checkpoint() // ckpt-3; wal-3 live: it was wal-1 and still holds generation 1's log
	old, err := os.ReadFile(file(crashImage(t, dir), "wal-3.log"))
	if err != nil {
		t.Fatal(err)
	}
	gen1, err := os.ReadFile(file(a, "wal-1.log"))
	if err != nil {
		t.Fatal(err)
	}
	if len(old) != len(gen1) || string(old[64:]) != string(gen1[64:]) {
		t.Fatal("wal-3.log is not the recycled wal-1.log: the test no longer covers stale contents")
	}
	before := crashImage(t, dir)
	apply(1)
	t.Run("recycled-first-frame", func(t *testing.T) {
		recoverAndResume(t, crashImage(t, dir), ops, done, sigs)
	})
	t.Run("recycled-first-frame-torn", func(t *testing.T) {
		// Behind the torn frame lie generation 1's intact frames.
		img := crashImage(t, dir)
		tearLastFrame(t, before, img)
		recoverAndResume(t, img, ops, done-1, sigs)
	})
}

// TestRecoveryWithCheckpoint crashes after a mid-script checkpoint and
// checks recovery = checkpoint + suffix replay, still matching the
// oracle.
func TestRecoveryWithCheckpoint(t *testing.T) {
	schema := cycleSchema(t)
	ops := recoveryScript()
	oracle, err := exchange.NewSystem(schema, exchange.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		if err := op.apply(oracle); err != nil {
			t.Fatal(err)
		}
	}

	for ckptAt := 1; ckptAt < len(ops); ckptAt += 3 {
		t.Run(fmt.Sprintf("ckpt=%d", ckptAt), func(t *testing.T) {
			dir := t.TempDir()
			sys, st, err := exchange.OpenDurable(cycleSchema(t), dir, wal.Options{}, exchange.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for i, op := range ops {
				if err := op.apply(sys); err != nil {
					t.Fatalf("%s: %v", op.name, err)
				}
				if i == ckptAt {
					if err := st.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
			}
			// Kill (the image is what it leaves), reopen.
			defer st.Close()
			rec, st2, err := exchange.OpenDurable(cycleSchema(t), crashImage(t, dir), wal.Options{}, exchange.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer st2.Close()
			if got, want := instanceSignature(rec), instanceSignature(oracle); got != want {
				t.Fatalf("recovered instance differs\ngot:\n%s\nwant:\n%s", got, want)
			}
			// Recovery touched only the suffix: batches after the
			// checkpoint, not the whole history.
			if st2.Replayed() >= len(ops) {
				t.Fatalf("replayed %d batches despite checkpoint at op %d", st2.Replayed(), ckptAt)
			}
		})
	}
}
