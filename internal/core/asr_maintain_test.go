package core_test

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/asr"
	"repro/internal/exchange"
	"repro/internal/model"
)

// asrSnapshot renders the backing tables of an ASR index as one sorted
// comparable string.
func asrSnapshot(t *testing.T, ex *exchange.System, ix *asr.Index) string {
	t.Helper()
	var lines []string
	for _, d := range ix.Defs() {
		tbl, ok := ex.DB.Table(d.Name)
		if !ok {
			t.Fatalf("ASR table %s missing", d.Name)
		}
		for _, row := range tbl.Rows() {
			lines = append(lines, d.Name+"|"+model.EncodeDatums(row))
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestFacadeSteadyStateNeverMaterializes is the acceptance check for
// incremental ASR maintenance: after an ASR is defined over a facade
// system's exchange, steady-state churn (insert + delta run, delete)
// patched from the insertion and deletion reports never invokes
// Materialize again, and leaves the tables row-identical to a full
// re-materialization. The facade keeps no ASR, so the test drives the
// exchange system and the index as the E12 harness does.
func TestFacadeSteadyStateNeverMaterializes(t *testing.T) {
	ex := openExample(t).Exchange()
	ix := asr.NewIndex(ex)
	if _, err := ix.Define(asr.Subpath, "m5", "m1"); err != nil {
		t.Fatal(err)
	}
	if err := ix.Materialize(); err != nil {
		t.Fatal(err)
	}
	baseline := ix.Materializations()
	insert := func(row model.Tuple) {
		t.Helper()
		if err := ex.InsertLocal("A", row); err != nil {
			t.Fatal(err)
		}
		report, err := ex.RunDelta()
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.ApplyInsertions(report); err != nil {
			t.Fatal(err)
		}
	}

	// Steady-state churn: insert + run, delete, insert + run.
	insert(model.Tuple{int64(3), "sn3", int64(4)})
	report, err := ex.DeleteLocal("A", []model.Datum{int64(1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.ApplyDeletions(report); err != nil {
		t.Fatal(err)
	}
	insert(model.Tuple{int64(1), "sn1", int64(7)})
	if got := ix.Materializations(); got != baseline {
		t.Fatalf("steady-state path re-materialized ASRs %d time(s); want patches only", got-baseline)
	}

	// The patched tables must equal ground truth.
	patched := asrSnapshot(t, ex, ix)
	if err := ix.Materialize(); err != nil {
		t.Fatal(err)
	}
	if rebuilt := asrSnapshot(t, ex, ix); patched != rebuilt {
		t.Fatalf("patched ASR tables differ from re-materialization\npatched:\n%s\nrebuilt:\n%s", patched, rebuilt)
	}
}
