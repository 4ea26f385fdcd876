package proql_test

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/asr"
	"repro/internal/exchange"
	"repro/internal/model"
	"repro/internal/proql"
	"repro/internal/relstore"
	"repro/internal/workload"
)

// templateCase is one query shape of the literal differential, built
// from its literals: two sets of the same literal classes, lits and
// prime, which a guard over constants only may decide differently.
type templateCase struct {
	name        string
	build       func(lits ...model.Datum) *proql.Query
	lits, prime []model.Datum
}

// pointWhere is $x.k = lits[0], the rest of the literals each adding a
// conjunct lits[i] = lits[i+1] over constants only.
func pointWhere(lits ...model.Datum) proql.Cond {
	var where proql.Cond = proql.CondCmp{Op: "=", L: proql.CmpOperand{Var: "x", Attr: "k"}, R: proql.CmpOperand{Lit: lits[0]}}
	for i := 1; i+1 < len(lits); i += 2 {
		where = proql.CondAnd{L: where, R: proql.CondCmp{Op: "=", L: proql.CmpOperand{Lit: lits[i]}, R: proql.CmpOperand{Lit: lits[i+1]}}}
	}
	return where
}

// withWhere parses text and sets its WHERE condition (NULL has no
// ProQL spelling).
func withWhere(text string, where proql.Cond) *proql.Query {
	q := proql.MustParse(text)
	q.Projection.Where = where
	return q
}

func templateCases() []templateCase {
	const (
		include = "FOR [A0 $x] INCLUDE PATH [$x] <-+ [] RETURN $x"
		trust   = "EVALUATE TRUST OF { " + include + " } ASSIGNING EACH leaf_node $y { CASE $y in B8 and $y.b1 >= 2147483648 : SET false DEFAULT : SET true }"
	)
	point := func(lits ...model.Datum) *proql.Query { return withWhere(include, pointWhere(lits...)) }
	negZero := math.Copysign(0, -1)
	return []templateCase{
		{"int key", point, []model.Datum{int64(80000003)}, []model.Datum{int64(90000004)}},
		{"missing int key", point, []model.Datum{int64(80000099)}, []model.Datum{int64(90000004)}},
		{"integral float", point, []model.Datum{80000003.0}, []model.Datum{90000004.0}},
		{"non-integral float", point, []model.Datum{80000003.5}, []model.Datum{90000004.25}},
		{"string", point, []model.Datum{"80000003"}, []model.Datum{"90000004"}},
		{"NULL", point, []model.Datum{nil}, []model.Datum{nil}},
		{"0.0 primed by -0.0", point, []model.Datum{0.0}, []model.Datum{negZero}},
		{"constant-only conjunct true, primed false", point,
			[]model.Datum{int64(80000003), "a", "a"}, []model.Datum{int64(90000004), "a", "b"}},
		{"constant-only conjunct false, primed true", point,
			[]model.Datum{int64(80000003), int64(1), int64(2)}, []model.Datum{int64(90000004), int64(3), int64(3)}},
		{"range", func(lits ...model.Datum) *proql.Query {
			k := proql.CmpOperand{Var: "x", Attr: "k"}
			return withWhere(include, proql.CondAnd{
				L: proql.CondCmp{Op: ">=", L: k, R: proql.CmpOperand{Lit: lits[0]}},
				R: proql.CondCmp{Op: "<=", L: k, R: proql.CmpOperand{Lit: lits[1]}},
			})
		}, []model.Datum{int64(80000002), int64(80000006)}, []model.Datum{int64(90000001), int64(90000003)}},
		{"single-node FOR", func(lits ...model.Datum) *proql.Query {
			return withWhere("FOR [A0 $x] RETURN $x", pointWhere(lits...))
		}, []model.Datum{int64(90000007)}, []model.Datum{int64(80000003)}},
		{"EVALUATE TRUST with leaf ASSIGNING", func(lits ...model.Datum) *proql.Query {
			return withWhere(trust, pointWhere(lits...))
		}, []model.Datum{int64(80000005)}, []model.Datum{int64(90000006)}},
	}
}

// resultText renders what a query answers: bindings, annotations and
// the projected graph.
func resultText(t *testing.T, res *proql.Result) string {
	t.Helper()
	var ann []string
	for ref, v := range res.Annotations {
		ann = append(ann, fmt.Sprintf("%v=%v", ref, v))
	}
	sort.Strings(ann)
	return fmt.Sprintf("bindings %v\nannotations %v\ngraph:\n%s", res.SortedRefs("x"), ann, graphSignature(t, res))
}

// checkTemplates runs every case, with each of its literal sets, on
// the relational translation and on the path executor, and checks both
// answers against the interpreter's. It returns how many answers bound
// a tuple.
func checkTemplates(t *testing.T, sys *exchange.System, eng *proql.Engine, rewrite func([]*proql.ConjRule) []*proql.ConjRule, phase string, asOf uint64, cases []templateCase) int {
	t.Helper()
	bound := 0
	eng.RewriteRules = rewrite
	for _, tc := range cases {
		for _, lits := range [][]model.Datum{tc.lits, tc.prime} {
			label := fmt.Sprintf("%s: %s %v", phase, tc.name, lits)
			q := tc.build(lits...)
			interp, err := proql.ExecInterpreter(eng, context.Background(), q, asOf)
			if err != nil {
				t.Fatalf("%s: interpreter: %v", label, err)
			}
			want := resultText(t, interp)
			for _, backend := range []string{"relational", "path"} {
				res, err := eng.Exec(context.Background(), q, proql.Options{Backend: backend, AsOfEpoch: asOf})
				if err != nil {
					t.Fatalf("%s on %s: %v", label, backend, err)
				}
				if got := resultText(t, res); got != want {
					t.Fatalf("%s on %s:\n%s\ninterpreter\n%s", label, backend, got, want)
				}
			}
			if !strings.HasPrefix(want, "bindings []") {
				bound++
			}
		}
	}
	return bound
}

// TestPlanTemplateDifferential checks the relational translation and
// the path executor against the tree-walking interpreter on queries
// that differ only in their WHERE literals, each planned from its own
// literals. On the chain, shapes cover point and range WHERE, int,
// float, string, NULL and ±0.0 literals against the int key,
// constant-only conjuncts whose two literal sets decide them
// differently, a single-node FOR, and EVALUATE TRUST with a leaf CASE;
// phases cover ASR-rewritten rules, then plain rules again, and AS OF
// an epoch before deletes. On the typed setting the same literals meet
// a float key column, where a literal pushed into a key probe it does
// not match by type would miss rows.
func TestPlanTemplateDifferential(t *testing.T) {
	set := chainSetting(t)
	set.Sys.DB.SetRetention(relstore.RetainAll)
	eng := proql.NewEngine(set.Sys)
	bound := checkTemplates(t, set.Sys, eng, nil, "live", 0, templateCases())

	ix := asr.NewIndex(set.Sys)
	for _, chain := range set.AChains() {
		for _, seg := range workload.SplitChain(chain, 2) {
			if _, err := ix.Define(asr.Subpath, seg...); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := ix.Materialize(); err != nil {
		t.Fatal(err)
	}
	bound += checkTemplates(t, set.Sys, eng, ix.RewriteRules, "ASR-rewritten", 0, templateCases())
	bound += checkTemplates(t, set.Sys, eng, nil, "rewriting off", 0, templateCases())

	before := set.Sys.DB.Epoch()
	for _, key := range []int64{80000003, 80000004, 90000007} {
		if _, err := set.Sys.DeleteLocal(workload.ARel(int(key/10_000_000)), []model.Datum{key}); err != nil {
			t.Fatal(err)
		}
	}
	bound += checkTemplates(t, set.Sys, eng, nil, "after deletes", 0, templateCases())
	bound += checkTemplates(t, set.Sys, eng, nil, fmt.Sprintf("as of %d", before), before, templateCases())

	sys := typedSystem(t)
	score := func(lits ...model.Datum) *proql.Query {
		return withWhere("FOR [R0 $x] INCLUDE PATH [$x] <-+ [] RETURN $x", proql.CondAnd{
			L: proql.CondCmp{Op: "=", L: proql.CmpOperand{Var: "x", Attr: "name"}, R: proql.CmpOperand{Lit: lits[0]}},
			R: proql.CondCmp{Op: "=", L: proql.CmpOperand{Var: "x", Attr: "score"}, R: proql.CmpOperand{Lit: lits[1]}},
		})
	}
	typed := []templateCase{
		{"float key", score, []model.Datum{"n1", 1.0}, []model.Datum{"n2", 2.0}},
		{"int against float key", score, []model.Datum{"n1", int64(1)}, []model.Datum{"n2", int64(2)}},
		{"non-integral float key", score, []model.Datum{"n2", 2.25}, []model.Datum{"n1", 1.5}},
		{"0.0 against float key", score, []model.Datum{"local", 0.0}, []model.Datum{"n0", math.Copysign(0, -1)}},
		{"-0.0 against float key", score, []model.Datum{"local", math.Copysign(0, -1)}, []model.Datum{"n0", 0.0}},
		{"NULL against float key", score, []model.Datum{"n1", nil}, []model.Datum{"n2", nil}},
		{"constant anchor terms", score, []model.Datum{"fixed", 1.5}, []model.Datum{"n1", 2.25}},
	}
	bound += checkTemplates(t, sys, proql.NewEngine(sys), nil, "typed", 0, typed)
	if bound == 0 {
		t.Error("no query bound a tuple")
	}
}

// pointAllocBound caps the allocations of one served point query on
// instance S: 105 when the relational translation answered it from a
// cached plan template.
const pointAllocBound = 105

// TestPathPointServedCounts holds, on instance S, what a key-pinned
// point query is under the default backend: the path executor, within
// pointAllocBound allocations served the way proqld serves it (Eval,
// then the sorted refs), with one binding, and reading the tables
// sparsely — no dense table is built or shared.
func TestPathPointServedCounts(t *testing.T) {
	set, err := workload.Build(workload.Config{
		Topology:  workload.Chain,
		Profile:   workload.ProfileLinear,
		NumPeers:  10,
		DataPeers: workload.UpstreamDataPeers(10, 2),
		BaseSize:  500,
		Seed:      7,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := proql.NewEngine(set.Sys)
	var keys []int64
	set.Sys.DB.MustTable(workload.ARel(0)).Iterate(func(row model.Tuple) bool {
		keys = append(keys, row[0].(int64))
		return true
	})
	qs := make([]*proql.Query, 64)
	for i := range qs {
		qs[i] = proql.MustParse(fmt.Sprintf("FOR [A0 $x] WHERE $x.k = %d INCLUDE PATH [$x] <-+ [] RETURN $x", keys[i*7%len(keys)]))
	}
	n, rows, backend := 0, 0, ""
	serve := func() {
		res, err := eng.Eval(context.Background(), qs[n%len(qs)], proql.Options{})
		if err != nil {
			t.Fatal(err)
		}
		n++
		res.SortedRefs("x")
		rows, backend = res.Len(), res.Stats.Backend
	}
	serve()
	allocs := testing.AllocsPerRun(200, serve)
	if rows != 1 || backend != "path" {
		t.Errorf("point query bound %d tuples on %s, want 1 on path", rows, backend)
	}
	if allocs > pointAllocBound {
		t.Errorf("%.0f allocations per point query, bound %d", allocs, pointAllocBound)
	}
	if _, _, tabs, _ := proql.SharedDense(eng); len(tabs) != 0 {
		t.Errorf("point queries shared %d dense tables, want none", len(tabs))
	}
	t.Logf("%.0f allocations per point query", allocs)
}
