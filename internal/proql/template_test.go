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

// templateCase is one query shape of the template differential, built
// from its literals: the query's own and a primer's of the same
// literal classes, whose execution leaves the shape's template behind.
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

// checkTemplates runs every case on the warm engine, after its primer,
// and checks the answer against a fresh engine's and the
// interpreter's. It returns how many answers bound a tuple.
func checkTemplates(t *testing.T, sys *exchange.System, warm *proql.Engine, rewrite func([]*proql.ConjRule) []*proql.ConjRule, phase string, asOf uint64, cases []templateCase) int {
	t.Helper()
	bound := 0
	for _, tc := range cases {
		label := fmt.Sprintf("%s: %s", phase, tc.name)
		q := tc.build(tc.lits...)
		exec := func(eng *proql.Engine, q *proql.Query) *proql.Result {
			t.Helper()
			res, err := eng.Exec(context.Background(), q, proql.Options{Backend: "relational", AsOfEpoch: asOf})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			return res
		}
		warm.RewriteRules = rewrite
		exec(warm, tc.build(tc.prime...))
		before, built := warm.PlanCacheStats(), proql.RulePlansBuilt()
		got := resultText(t, exec(warm, q))
		if after := warm.PlanCacheStats(); after.Hits != before.Hits+1 || after.Misses != before.Misses {
			t.Errorf("%s: not a template hit: %+v then %+v", label, before, after)
		}
		if n := proql.RulePlansBuilt() - built; n != 0 {
			t.Errorf("%s: a template hit built %d rule plans", label, n)
		}
		fresh := proql.NewEngine(sys)
		fresh.RewriteRules = rewrite
		if want := resultText(t, exec(fresh, q)); got != want {
			t.Fatalf("%s: warm engine\n%s\nfresh engine\n%s", label, got, want)
		}
		interp, err := proql.ExecInterpreter(warm, context.Background(), q, asOf)
		if err != nil {
			t.Fatalf("%s: interpreter: %v", label, err)
		}
		if want := resultText(t, interp); got != want {
			t.Fatalf("%s: warm engine\n%s\ninterpreter\n%s", label, got, want)
		}
		if !strings.HasPrefix(got, "bindings []") {
			bound++
		}
	}
	return bound
}

// TestPlanTemplateDifferential checks relational plan templates
// against two answers that share none of their binding: a fresh engine,
// which builds the template from the query's own literals, and the
// tree-walking interpreter. The warm engine answers each query from the
// template a primer query of the same shape and literal classes but
// other values left behind — a template hit, which must not plan a
// single rule — after the same shape ran with literals of every other
// class. On the chain, shapes cover point and range WHERE, int, float,
// string, NULL and ±0.0 literals against the int key, constant-only
// conjuncts that flip between primer and query, a single-node FOR, and
// EVALUATE TRUST with a leaf CASE; phases cover ASR-rewritten rules,
// then plain rules again, and AS OF an epoch before deletes. On the
// typed setting the same literals meet a float key column, where a
// literal bound into another class's template would miss rows.
func TestPlanTemplateDifferential(t *testing.T) {
	set := chainSetting(t)
	set.Sys.DB.SetRetention(relstore.RetainAll)
	warm := proql.NewEngine(set.Sys)
	bound := checkTemplates(t, set.Sys, warm, nil, "live", 0, templateCases())

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
	bound += checkTemplates(t, set.Sys, warm, ix.RewriteRules, "ASR-rewritten", 0, templateCases())
	bound += checkTemplates(t, set.Sys, warm, nil, "rewriting off", 0, templateCases())

	before := set.Sys.DB.Epoch()
	for _, key := range []int64{80000003, 80000004, 90000007} {
		if _, err := set.Sys.DeleteLocal(workload.ARel(int(key/10_000_000)), []model.Datum{key}); err != nil {
			t.Fatal(err)
		}
	}
	bound += checkTemplates(t, set.Sys, warm, nil, "after deletes", 0, templateCases())
	bound += checkTemplates(t, set.Sys, warm, nil, fmt.Sprintf("as of %d", before), before, templateCases())

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

// pointAllocBound caps the allocations of one served relational point
// query on instance S. Planning every rule on every execution made 764;
// binding the literal into the cached template makes about 298.
const pointAllocBound = 350

// TestRelationalPointServedCounts holds, on instance S, what a warm
// relational point query is: a template hit that plans no rule, within
// pointAllocBound allocations served the way proqld serves it (Eval,
// then the sorted refs), with one binding; and its EXPLAIN renders the
// same template, bound, without planning either.
func TestRelationalPointServedCounts(t *testing.T) {
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
	query := func(i int) *proql.Query {
		return proql.MustParse(fmt.Sprintf("FOR [A0 $x] WHERE $x.k = %d INCLUDE PATH [$x] <-+ [] RETURN $x", keys[i%len(keys)]))
	}
	qs := make([]*proql.Query, 64)
	for i := range qs {
		qs[i] = query(i)
	}
	n, rows := 0, 0
	serve := func() {
		res, err := eng.Eval(context.Background(), qs[n%len(qs)], proql.Options{})
		if err != nil {
			t.Fatal(err)
		}
		n++
		res.SortedRefs("x")
		rows = res.Len()
	}
	serve() // builds the template
	built, before := proql.RulePlansBuilt(), eng.PlanCacheStats()
	allocs := testing.AllocsPerRun(50, serve)
	if rows != 1 {
		t.Errorf("point query bound %d tuples, want 1", rows)
	}
	if allocs > pointAllocBound {
		t.Errorf("%.0f allocations per point query, bound %d", allocs, pointAllocBound)
	}
	if d := proql.RulePlansBuilt() - built; d != 0 {
		t.Errorf("warm point queries built %d rule plans, want 0", d)
	}
	after := eng.PlanCacheStats()
	if after.Misses != before.Misses || after.Entries != 1 {
		t.Errorf("plan cache %+v after %+v: want hits only, one entry", after, before)
	}
	t.Logf("%.0f allocations per point query", allocs)

	q := query(7)
	plan, err := eng.Explain(q, proql.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d := proql.RulePlansBuilt() - built; d != 0 {
		t.Errorf("EXPLAIN of a cached shape built %d rule plans, want 0", d)
	}
	fresh, err := proql.NewEngine(set.Sys).Explain(q, proql.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cut := func(s string) string { return s[:strings.Index(s, "plan cache:")] }
	if cut(plan) != cut(fresh) {
		t.Errorf("EXPLAIN from the cached template\n%s\ndiffers from a fresh engine's\n%s", plan, fresh)
	}
	if want := fmt.Sprintf("keys=[%d, $1]", keys[7]); !strings.Contains(plan, want) {
		t.Errorf("EXPLAIN does not show the bound key %s:\n%s", want, plan)
	}
}
