package proql_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/asr"
	"repro/internal/exchange"
	"repro/internal/model"
	"repro/internal/proql"
	"repro/internal/relstore"
	"repro/internal/workload"
)

// typedSystem is a small setting whose anchor relation R0 has a column
// of every datum type and a composite (string, float) key, so pushed
// literals of each type reach key lookups, head-key index probes and
// residual filters. Mapping m3 has constants in its head: rules
// through it carry constant anchor terms, which the planner decides
// statically.
//
//	m1: R0(n, s, i, b)        :- R1(i, n, s, b)
//	m2: R1(i, n, s, b)        :- R2(i, n, s), F(i, b)
//	m3: R0("fixed", s, i, true) :- R2(i, n, s)
func typedSystem(t *testing.T) *exchange.System {
	t.Helper()
	intCol := func(n string) model.Column { return model.Column{Name: n, Type: model.TypeInt} }
	strCol := func(n string) model.Column { return model.Column{Name: n, Type: model.TypeString} }
	fltCol := func(n string) model.Column { return model.Column{Name: n, Type: model.TypeFloat} }
	boolCol := func(n string) model.Column { return model.Column{Name: n, Type: model.TypeBool} }
	schema := model.NewSchema()
	for _, r := range []*model.Relation{
		model.MustRelation("R0", []model.Column{strCol("name"), fltCol("score"), intCol("id"), boolCol("ok")}, "name", "score"),
		model.MustRelation("R1", []model.Column{intCol("id"), strCol("name"), fltCol("score"), boolCol("ok")}, "id"),
		model.MustRelation("R2", []model.Column{intCol("id"), strCol("name"), fltCol("score")}, "id"),
		model.MustRelation("F", []model.Column{intCol("id"), boolCol("ok")}, "id"),
	} {
		if err := schema.AddRelation(r); err != nil {
			t.Fatal(err)
		}
	}
	v, c := model.V, model.C
	for _, m := range []*model.Mapping{
		model.NewMapping("m1",
			model.NewAtom("R0", v("n"), v("s"), v("i"), v("b")),
			model.NewAtom("R1", v("i"), v("n"), v("s"), v("b"))),
		model.NewMapping("m2",
			model.NewAtom("R1", v("i"), v("n"), v("s"), v("b")),
			model.NewAtom("R2", v("i"), v("n"), v("s")),
			model.NewAtom("F", v("i"), v("b"))),
		model.NewMapping("m3",
			model.NewAtom("R0", c("fixed"), v("s"), v("i"), c(true)),
			model.NewAtom("R2", v("i"), v("n"), v("s"))),
	} {
		if err := schema.AddMapping(m); err != nil {
			t.Fatal(err)
		}
	}
	sys, err := exchange.NewSystem(schema, exchange.Options{})
	if err != nil {
		t.Fatal(err)
	}
	scores := []float64{0, 1, 1.5, 2, -3, 2.25}
	for i := 0; i < 12; i++ {
		// Scores are distinct, so the rows m3 derives under one name do
		// not collide on R0's key.
		id, name, score := int64(i), fmt.Sprintf("n%d", i%5), scores[i%len(scores)]+float64(10*(i/len(scores)))
		if err := sys.InsertLocal("R2", model.Tuple{id, name, score}); err != nil {
			t.Fatal(err)
		}
		if err := sys.InsertLocal("F", model.Tuple{id, i%3 == 0}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 100; i < 104; i++ {
		if err := sys.InsertLocal("R1", model.Tuple{int64(i), "fixed", float64(i) / 2, i%2 == 0}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.InsertLocal("R0",
		model.Tuple{"local", 7.0, int64(200), false},
		model.Tuple{"local", 0.0, int64(201), false},
	); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	return sys
}

// whereGen draws random anchor WHERE conditions over one relation.
type whereGen struct {
	rng *rand.Rand
	rel *model.Relation
	// stored holds values present in the anchor table, per column.
	stored [][]model.Datum
}

func newWhereGen(rng *rand.Rand, sys *exchange.System, relName string) *whereGen {
	rel, _ := sys.Schema.Relation(relName)
	g := &whereGen{rng: rng, rel: rel, stored: make([][]model.Datum, len(rel.Columns))}
	sys.DB.MustTable(relName).Iterate(func(row model.Tuple) bool {
		for i, d := range row {
			g.stored[i] = append(g.stored[i], d)
		}
		return true
	})
	return g
}

// literal draws a comparison literal for column col: mostly a stored
// value of the column, sometimes a missing one, the same number in the
// other numeric type, another type entirely, or NULL.
func (g *whereGen) literal(col int) model.Datum {
	var d model.Datum = int64(g.rng.Intn(5))
	if vals := g.stored[col]; len(vals) > 0 {
		d = vals[g.rng.Intn(len(vals))]
	}
	return g.perturb(d)
}

// perturb returns d half of the time and otherwise one of the literals
// a comparison with d must not be confused by.
func (g *whereGen) perturb(d model.Datum) model.Datum {
	switch g.rng.Intn(10) {
	case 0: // numeric value in the other numeric type
		switch n := d.(type) {
		case int64:
			return float64(n)
		case float64:
			if n == float64(int64(n)) {
				return int64(n)
			}
		}
	case 1: // missing value of the right type
		switch n := d.(type) {
		case int64:
			return n + 1_000_003
		case float64:
			return n + 0.125
		case string:
			return n + "?"
		case bool:
			return !n
		}
	case 2: // non-integral float, whatever the column
		return float64(g.rng.Intn(4)) + 0.5
	case 3:
		return []model.Datum{"n1", "17", true, int64(1), 1.0, math.Copysign(0, -1)}[g.rng.Intn(6)]
	case 4:
		return nil
	}
	return d
}

func (g *whereGen) attr(col int) proql.CmpOperand {
	return proql.CmpOperand{Var: "x", Attr: g.rel.Columns[col].Name}
}

func (g *whereGen) cmp() proql.Cond {
	col := g.rng.Intn(len(g.rel.Columns))
	op := "="
	if g.rng.Intn(3) == 0 {
		op = []string{"!=", "<", "<=", ">", ">="}[g.rng.Intn(5)]
	}
	l, r := g.attr(col), proql.CmpOperand{Lit: g.literal(col)}
	switch g.rng.Intn(8) {
	case 0:
		l, r = r, l
	case 1:
		r = g.attr(g.rng.Intn(len(g.rel.Columns)))
	case 2:
		if g.rng.Intn(2) == 0 {
			return proql.CondIn{Var: "x", Rel: g.rel.Name}
		}
		return proql.CondIn{Var: "x", Rel: "Nowhere"}
	}
	return proql.CondCmp{Op: op, L: l, R: r}
}

func (g *whereGen) cond(depth int) proql.Cond {
	if depth == 0 {
		return g.cmp()
	}
	switch g.rng.Intn(6) {
	case 0, 1, 2:
		return proql.CondAnd{L: g.cond(depth - 1), R: g.cond(depth - 1)}
	case 3:
		return proql.CondOr{L: g.cond(depth - 1), R: g.cond(depth - 1)}
	case 4:
		return proql.CondNot{E: g.cond(depth - 1)}
	}
	return g.cmp()
}

// graphSignature renders a projected provenance graph canonically: the
// tuple nodes with their rows and leaf marks, and the derivations by ID
// with their sources and targets in atom order.
func graphSignature(t *testing.T, res *proql.Result) string {
	t.Helper()
	g, err := res.Graph()
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, tn := range g.Tuples() {
		lines = append(lines, fmt.Sprintf("T %v leaf=%v row=%v", tn.Ref, tn.Leaf, tn.Row))
	}
	for _, d := range g.Derivations() {
		var src, tgt []string
		for _, s := range d.Sources {
			src = append(src, s.Ref.String())
		}
		for _, s := range d.Targets {
			tgt = append(tgt, s.Ref.String())
		}
		lines = append(lines, fmt.Sprintf("D %s %s %v -> %v", d.ID, d.Mapping, src, tgt))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// checkPushdown runs one query through the planner and through the
// filter-on-top oracle at one epoch and demands identical bindings,
// annotations and projected graphs.
func checkPushdown(t *testing.T, eng *proql.Engine, q *proql.Query, asOf uint64, label string) {
	t.Helper()
	got, err := eng.Exec(context.Background(), q, proql.Options{Backend: "relational", AsOfEpoch: asOf})
	if err != nil {
		t.Fatalf("%s: planner: %v", label, err)
	}
	want, err := eng.ExecFilterOnTop(q, asOf)
	if err != nil {
		t.Fatalf("%s: oracle: %v", label, err)
	}
	gotRefs, wantRefs := got.SortedRefs("x"), want.SortedRefs("x")
	if fmt.Sprint(gotRefs) != fmt.Sprint(wantRefs) {
		t.Fatalf("%s: bindings\n got  %v\n want %v", label, gotRefs, wantRefs)
	}
	if len(got.Annotations) != len(want.Annotations) {
		t.Fatalf("%s: %d annotations, oracle has %d", label, len(got.Annotations), len(want.Annotations))
	}
	for ref, wv := range want.Annotations {
		if gv, ok := got.Annotations[ref]; !ok || !want.Semiring.Eq(gv, wv) {
			t.Fatalf("%s: annotation of %v: got %v, want %v", label, ref, gv, wv)
		}
	}
	if gs, ws := graphSignature(t, got), graphSignature(t, want); gs != ws {
		t.Fatalf("%s: projected graph\n got:\n%s\n want:\n%s", label, gs, ws)
	}
}

// queryForms wraps an anchor relation and WHERE condition in the query
// shapes the relational backend serves.
func queryForms(t *testing.T, anchor, terminal string, where proql.Cond) []*proql.Query {
	t.Helper()
	base := fmt.Sprintf("FOR [%s $x]", anchor)
	texts := []string{
		base + " INCLUDE PATH [$x] <-+ [] RETURN $x",
		base + " RETURN $x",
		"EVALUATE COUNT OF { " + base + " INCLUDE PATH [$x] <-+ [] RETURN $x }",
		"EVALUATE DERIVABILITY OF { " + base + " RETURN $x }",
	}
	if terminal != "" {
		texts = append(texts, fmt.Sprintf("FOR [%s $x] <-+ [%s] INCLUDE PATH [$x] <-+ [] RETURN $x", anchor, terminal))
	}
	qs := make([]*proql.Query, len(texts))
	for i, text := range texts {
		qs[i] = proql.MustParse(text)
		qs[i].Projection.Where = where
	}
	return qs
}

// TestPushdownDifferential is the correctness guard of selection
// pushdown: random anchor WHERE conditions — int, float, string, bool
// and NULL literals against columns of every type, AND/OR/NOT,
// attribute-to-attribute and IN conditions, missing keys, several
// conjuncts — must give the same answer whether the planner pushes
// them into key lookups, index probes and index joins or a Filter
// evaluates them on top of unrestricted hash-join plans; live, with
// ASR-rewritten rules, and AS OF an older epoch after deletes.
func TestPushdownDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(20100614))

	t.Run("typed", func(t *testing.T) {
		sys := typedSystem(t)
		sys.DB.SetRetention(relstore.RetainAll)
		eng := proql.NewEngine(sys)
		gen := newWhereGen(rng, sys, "R0")
		before := sys.DB.Epoch()
		var conds []proql.Cond
		for i := 0; i < 150; i++ {
			where := gen.cond(rng.Intn(3))
			conds = append(conds, where)
			for _, q := range queryForms(t, "R0", "R2", where) {
				checkPushdown(t, eng, q, 0, fmt.Sprintf("live %s", q.Projection.Where))
			}
		}
		for _, id := range []int64{0, 3, 7} {
			if _, err := sys.DeleteLocal("R2", []model.Datum{id}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := sys.DeleteLocal("R1", []model.Datum{int64(101)}); err != nil {
			t.Fatal(err)
		}
		for _, where := range conds {
			for _, q := range queryForms(t, "R0", "R2", where) {
				checkPushdown(t, eng, q, before, fmt.Sprintf("as of %d %s", before, q.Projection.Where))
				checkPushdown(t, eng, q, 0, fmt.Sprintf("after deletes %s", q.Projection.Where))
			}
		}
	})

	t.Run("chains", func(t *testing.T) {
		for trial := 0; trial < 12; trial++ {
			cfg := randomConfig(rng)
			set, err := workload.Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			set.Sys.DB.SetRetention(relstore.RetainAll)
			eng := proql.NewEngine(set.Sys)
			anchor := workload.ARel(rng.Intn(cfg.NumPeers))
			terminal := workload.ARel(cfg.DataPeers[rng.Intn(len(cfg.DataPeers))])
			gen := newWhereGen(rng, set.Sys, anchor)
			label := fmt.Sprintf("trial %d (%s/%s peers=%d data=%v) %s", trial, cfg.Topology, cfg.Profile, cfg.NumPeers, cfg.DataPeers, anchor)
			var conds []proql.Cond
			for i := 0; i < 12; i++ {
				conds = append(conds, gen.cond(rng.Intn(3)))
			}
			run := func(asOf uint64, phase string) {
				for _, where := range conds {
					for _, q := range queryForms(t, anchor, terminal, where) {
						checkPushdown(t, eng, q, asOf, fmt.Sprintf("%s %s: %s", label, phase, q.Projection.Where))
					}
				}
			}
			run(0, "live")
			if cfg.Profile == workload.ProfileLinear && cfg.NumPeers >= 3 {
				ix := asr.NewIndex(set.Sys)
				for _, chain := range set.AChains() {
					for _, seg := range workload.SplitChain(chain, 1+rng.Intn(3)) {
						if _, err := ix.Define(asr.Subpath, seg...); err != nil {
							t.Fatal(err)
						}
					}
				}
				if err := ix.Materialize(); err != nil {
					t.Fatal(err)
				}
				eng.RewriteRules = ix.RewriteRules
				run(0, "asr")
				eng.RewriteRules = nil
			}
			before := set.Sys.DB.Epoch()
			for d := 0; d < 3; d++ {
				peer := cfg.DataPeers[rng.Intn(len(cfg.DataPeers))]
				victim := int64(peer)*10_000_000 + int64(rng.Intn(cfg.BaseSize))
				if _, err := set.Sys.DeleteLocal(workload.ARel(peer), []model.Datum{victim}); err != nil {
					t.Fatal(err)
				}
			}
			run(before, fmt.Sprintf("as of %d", before))
			run(0, "after deletes")
		}
	})
}

// TestPushdownTypeGuard spells out the literal cases the guard exists
// for, on the typed anchor R0(name string, score float, id int, ok
// bool): what is pushed must find exactly what the Filter found.
func TestPushdownTypeGuard(t *testing.T) {
	sys := typedSystem(t)
	eng := proql.NewEngine(sys)
	for _, tc := range []struct {
		where string
		want  int
	}{
		{`$x.id = 4`, 2},                                  // exact int, pushed: the m1 row and the m3 row of id 4
		{`$x.id = 4.0`, 2},                                // integral float against int: pushed as 4
		{`$x.id = 4.5`, 0},                                // no int equals it: Filter
		{`$x.id = '4'`, 0},                                // mixed types never equal: Filter
		{`$x.score = 2`, 2},                               // int against float coerces: Filter
		{`$x.score = 2.0`, 2},                             // exact float: pushed
		{`$x.score = 0.0`, 3},                             // zero stays a Filter:
		{`$x.score = -0.0`, 3},                            // -0.0 equals the stored 0.0 but encodes differently
		{`$x.name = 'local' AND $x.score = -0.0`, 1},      // a pushed -0.0 would miss the key (local, 0.0)
		{`$x.name = 'n1' AND $x.score = 1.0`, 1},          // both key columns: PKLookup
		{`$x.name = 'fixed' AND $x.ok = true`, 12 + 2},    // m3's constant head terms decide statically
		{`$x.name = 'n1' AND $x.name = 'n2'`, 0},          // second conjunct stays a Filter
		{`$x.id = 4 AND NOT $x.name = 'n4'`, 1},           // residual over a pushed rule
		{`$x.id >= 3 AND $x.id <= 5 AND $x.ok = true`, 4}, // range conjuncts + pushed bool
		{`$x.id = 100000`, 0},                             // missing key
		{`$x.id = 3 AND $x.name = 'fixed'`, 1},            // only the m3 rule survives
		{`$x.name = 'local'`, 2},                          // local contributions only
		{`(($x.id = 1 AND $x.ok = false) AND $x.score > 0)`, 1},
	} {
		q := proql.MustParse(`FOR [R0 $x] WHERE ` + tc.where + ` INCLUDE PATH [$x] <-+ [] RETURN $x`)
		checkPushdown(t, eng, q, 0, tc.where)
		res, err := eng.Exec(context.Background(), q, proql.Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.where, err)
		}
		if got := len(res.SortedRefs("x")); got != tc.want {
			t.Errorf("%s: %d bindings, want %d", tc.where, got, tc.want)
		}
	}
}

// TestPushdownErrorsAndCancel checks the two behaviours the relational
// translation's pushdown must not lose: every conjunct is still
// validated (even beside a statically false one), and Query.Cancel is
// still polled once per output row of both the anchor read and the
// rule stream.
func TestPushdownErrorsAndCancel(t *testing.T) {
	sys := typedSystem(t)
	eng := proql.NewEngine(sys)
	rel := proql.Options{Backend: "relational"}
	for _, where := range []string{
		`$x.nosuch = 1`,
		`$x.name = 'fixed' AND $x.nosuch = 1`,
		`1 = 2 AND $x.nosuch = 1`,
		`$x = 1`,
	} {
		if _, err := eng.Exec(context.Background(), proql.MustParse(`FOR [R0 $x] WHERE `+where+` RETURN $x`), rel); err == nil {
			t.Errorf("WHERE %s: expected an error", where)
		}
	}

	q := proql.MustParse(`FOR [R0 $x] WHERE $x.ok = true INCLUDE PATH [$x] <-+ [] RETURN $x`)
	var polls atomic.Int64 // rule workers poll too
	q.Cancel = func() error { polls.Add(1); return nil }
	res, err := eng.Exec(context.Background(), q, rel)
	if err != nil {
		t.Fatal(err)
	}
	// One poll per row and one per end of stream, on the anchor read
	// and on the rule stream; every binding is at least one row of each.
	if n := len(res.Bindings); polls.Load() < int64(2*(n+1)) {
		t.Errorf("Cancel polled %d times for %d bindings", polls.Load(), n)
	}
	stop := errors.New("stop")
	polls.Store(0)
	q.Cancel = func() error {
		if polls.Add(1) > 3 {
			return stop
		}
		return nil
	}
	if _, err := eng.Exec(context.Background(), q, rel); !errors.Is(err, stop) {
		t.Errorf("Exec after cancellation = %v, want %v", err, stop)
	}
}
