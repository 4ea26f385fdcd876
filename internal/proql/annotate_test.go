package proql

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/exchange"
	"repro/internal/fixture"
	"repro/internal/model"
	"repro/internal/provgraph"
	"repro/internal/semiring"
)

// table1Semirings are the semirings of Table 1 with the token
// semirings Section 2.1 builds on, each with two SET literals it
// accepts: one for the leaves an attribute test selects, one for the
// rest.
var table1Semirings = []struct{ name, picked, rest string }{
	{"DERIVABILITY", "false", "true"},
	{"TRUST", "false", "true"},
	{"CONFIDENTIALITY", "'secret'", "'public'"},
	{"WEIGHT", "7", "2"},
	{"LINEAGE", "false", "true"},
	{"PROBABILITY", "false", "true"},
	{"POSBOOL", "false", "true"},
	{"COUNT", "3", "2"},
	{"POLYNOMIAL", "false", "true"},
}

// TestPathAnnotationsMatchInterpreter is the EVALUATE differential:
// for every Table 1 semiring the path executor's annotations equal the
// interpreter's (evalGraph over the projected graph), value for
// value and in their rendering, on the acyclic example, on the cyclic
// one (mapping m3: C and N derive each other) and on a multi-head
// (GLAV) mapping large enough that the path view reads its relations
// densely, over whole ancestries and over no projection at all, under
// the default leaves, a leaf assignment that reads an attribute, one
// with no DEFAULT (unselected leaves keep the semiring's default, the
// tuple's own token for the token semirings) and a mapping assignment.
// Where the interpreter refuses a cyclic projection (a semiring that is
// not cycle-safe) the path executor must refuse it too. Some returned
// tuple in each setting has a local contribution and is derived as
// well, so its leaf value and its derivations both count.
func TestPathAnnotationsMatchInterpreter(t *testing.T) {
	example := func(m3 bool) *exchange.System {
		sys := fixture.MustSystem(fixture.Options{IncludeM3: m3})
		if !m3 {
			// N(2, sn2, true) is derived by m2; make it a local
			// contribution as well (the cyclic setting has C(2, cn2)).
			if err := sys.InsertLocal("N", model.Tuple{int64(2), "sn2", true}); err != nil {
				t.Fatal(err)
			}
			if err := sys.Run(); err != nil {
				t.Fatal(err)
			}
		}
		return sys
	}
	exampleBodies := []string{
		"FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x",
		"FOR [N $x] INCLUDE PATH [$x] <-+ [] RETURN $x",
		"FOR [C $x] INCLUDE PATH [$x] <-+ [] RETURN $x",
		"FOR [O $x] RETURN $x", // no projection: every tuple is a leaf
	}
	for _, setting := range []struct {
		name   string
		sys    *exchange.System
		bodies []string
		// The leaf clauses' conditions: one reading an attribute, one
		// naming a relation; and the mapping the mapping clause picks.
		attrCond, relCond, mapping string
		cyclic                     bool
	}{
		{"acyclic", example(false), exampleBodies, "$y in A and $y.length >= 6", "$y in C", "m1", false},
		{"cyclic", example(true), exampleBodies, "$y in A and $y.length >= 6", "$y in C", "m1", true},
		{"multi-head", multiHeadSystem(t, 60), []string{
			// The walk from T1 reaches each derivation by its T1 head
			// only; its T2 head joins the projection as a target.
			"FOR [T1 $x] INCLUDE PATH [$x] <-+ [] RETURN $x",
			"FOR [U $x] INCLUDE PATH [$x] <-+ [] RETURN $x",
			"FOR [T2 $x] RETURN $x",
		}, "$y in S and $y.w >= 30", "$y in T1", "mGLAV", false},
	} {
		e := NewEngine(setting.sys)
		localAndDerived, refused := 0, 0
		for _, sr := range table1Semirings {
			for _, body := range setting.bodies {
				for _, assign := range []string{
					"",
					fmt.Sprintf(` ASSIGNING EACH leaf_node $y { CASE %s : SET %s DEFAULT : SET %s }`, setting.attrCond, sr.picked, sr.rest),
					fmt.Sprintf(` ASSIGNING EACH leaf_node $y { CASE %s : SET %s }`, setting.relCond, sr.picked),
					fmt.Sprintf(` ASSIGNING EACH mapping $p($z) { CASE $p = %s : SET %s DEFAULT : SET $z }`, setting.mapping, sr.rest),
				} {
					text := fmt.Sprintf("EVALUATE %s OF { %s }%s", sr.name, body, assign)
					label := setting.name + ": " + text
					want, werr := ExecInterpreter(e, context.Background(), MustParse(text), 0)
					got, gerr := e.Exec(context.Background(), MustParse(text), Options{Backend: "asr"})
					if (werr != nil) != (gerr != nil) {
						t.Fatalf("%s: interpreter error %v, asr error %v", label, werr, gerr)
					}
					if werr != nil {
						if !strings.Contains(gerr.Error(), "cyclic") {
							t.Errorf("%s: asr refused with %v, want the cyclic refusal", label, gerr)
						}
						refused++
						continue
					}
					sameAnnotations(t, label, want, got)
					wg := want.MustGraph()
					for ref := range got.Annotations {
						tn, _ := wg.Lookup(ref)
						if e.Sys.IsLeafRef(ref) && len(tn.Derivations) > 0 {
							localAndDerived++
						}
					}
				}
			}
		}
		if localAndDerived == 0 {
			t.Errorf("%s: no returned tuple is both a local contribution and derived", setting.name)
		}
		if setting.cyclic != (refused > 0) {
			t.Errorf("%s: %d queries refused", setting.name, refused)
		}
	}
}

// multiHeadSystem builds an exchanged system whose mapping mGLAV has
// two head atoms, T1(x, w) and T2(x, w) :- S(x, w), over n local S
// tuples, with U(x, w) :- T1(x, w) downstream of one head. T1(0, 0)
// is also a local contribution.
func multiHeadSystem(t *testing.T, n int) *exchange.System {
	t.Helper()
	schema := model.NewSchema()
	cols := []model.Column{{Name: "x", Type: model.TypeInt}, {Name: "w", Type: model.TypeInt}}
	for _, name := range []string{"S", "T1", "T2", "U"} {
		if err := schema.AddRelation(model.MustRelation(name, cols, "x")); err != nil {
			t.Fatal(err)
		}
	}
	v := model.V
	for _, m := range []*model.Mapping{
		model.NewMultiHeadMapping("mGLAV",
			[]model.Atom{model.NewAtom("T1", v("x"), v("w")), model.NewAtom("T2", v("x"), v("w"))},
			[]model.Atom{model.NewAtom("S", v("x"), v("w"))}),
		model.NewMultiHeadMapping("mU",
			[]model.Atom{model.NewAtom("U", v("x"), v("w"))},
			[]model.Atom{model.NewAtom("T1", v("x"), v("w"))}),
	} {
		if err := schema.AddMapping(m); err != nil {
			t.Fatal(err)
		}
	}
	sys, err := exchange.NewSystem(schema, exchange.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for x := range int64(n) {
		if err := sys.InsertLocal("S", model.Tuple{x, x % 50}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.InsertLocal("T1", model.Tuple{int64(0), int64(0)}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	return sys
}

// sameAnnotations compares two EVALUATE results: the same semiring and
// the same annotation, by Eq and by rendering, for every tuple.
func sameAnnotations(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if got.Semiring == nil || got.Semiring.Name() != want.Semiring.Name() {
		t.Fatalf("%s: semiring %v, want %s", label, got.Semiring, want.Semiring.Name())
	}
	if len(got.Annotations) != len(want.Annotations) || len(want.Annotations) == 0 {
		t.Fatalf("%s: %d annotations, the interpreter has %d", label, len(got.Annotations), len(want.Annotations))
	}
	s := want.Semiring
	for ref, wv := range want.Annotations {
		gv, ok := got.Annotations[ref]
		if !ok || !s.Eq(wv, gv) || s.Format(wv) != s.Format(gv) {
			t.Errorf("%s: %v annotated %v, the interpreter %s", label, ref, formatOrMissing(s, gv, ok), s.Format(wv))
		}
	}
}

func formatOrMissing(s semiring.Semiring, v semiring.Value, ok bool) string {
	if !ok {
		return "(missing)"
	}
	return s.Format(v)
}

// TestPathEvaluateLinksNothing: an EVALUATE on the path executor links
// no provenance graph during the query — the result holds no node and
// no whole graph is built — and Result.Graph() then links the
// projection, equal to the interpreter's projected graph.
func TestPathEvaluateLinksNothing(t *testing.T) {
	for _, m3 := range []bool{false, true} {
		e := NewEngine(fixture.MustSystem(fixture.Options{IncludeM3: m3}))
		for _, text := range []string{
			paperQueries["Q5"], paperQueries["Q6"], paperQueries["Q7"],
			`EVALUATE TRUST OF { FOR [N $x] INCLUDE PATH [$x] <-+ [] RETURN $x }`,
		} {
			q := MustParse(text)
			builds := provgraph.Builds()
			res, err := e.Eval(context.Background(), q, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.Backend != "asr" {
				t.Fatalf("%s: ran on %s, want asr", text, res.Stats.Backend)
			}
			if n := res.LinkedNodes(); n != 0 || provgraph.Builds() != builds || len(res.Annotations) == 0 {
				t.Errorf("%s: EVALUATE linked %d nodes and built %d graphs for %d annotations, want 0 and 0",
					text, n, provgraph.Builds()-builds, len(res.Annotations))
			}
			want, err := ExecInterpreter(e, context.Background(), q, 0)
			if err != nil {
				t.Fatal(err)
			}
			sameGraph(t, text, want.MustGraph(), res.MustGraph())
			if res.LinkedNodes() == 0 {
				t.Errorf("%s: Graph() linked nothing", text)
			}
		}
	}
}

// sameGraph compares two projected graphs node for node: tuples with
// their stored rows and leaf status, derivations with their mappings,
// sources and targets. A tuple counts as a leaf when it is marked one
// or has no incoming derivation, the rule EVALUATE applies; the
// interpreter marks the second kind on its graph, the linker does not.
func sameGraph(t *testing.T, label string, want, got *provgraph.Graph) {
	t.Helper()
	tuples := func(g *provgraph.Graph) []string {
		var out []string
		for _, tn := range g.Tuples() {
			leaf := tn.Leaf || len(tn.Derivations) == 0
			out = append(out, fmt.Sprintf("%v %v leaf=%v", tn.Ref, tn.Row, leaf))
		}
		slices.Sort(out)
		return out
	}
	derivs := func(g *provgraph.Graph) []string {
		var out []string
		for _, d := range g.Derivations() {
			var sb strings.Builder
			fmt.Fprintf(&sb, "%s %s:", d.ID, d.Mapping)
			for _, s := range d.Sources {
				fmt.Fprintf(&sb, " %v", s.Ref)
			}
			sb.WriteString(" ->")
			for _, tn := range d.Targets {
				fmt.Fprintf(&sb, " %v", tn.Ref)
			}
			out = append(out, sb.String())
		}
		slices.Sort(out)
		return out
	}
	if w, g := tuples(want), tuples(got); !slices.Equal(w, g) {
		t.Errorf("%s: projected tuples differ:\ninterpreter %v\nasr         %v", label, w, g)
	}
	if w, g := derivs(want), derivs(got); !slices.Equal(w, g) {
		t.Errorf("%s: projected derivations differ:\ninterpreter %v\nasr         %v", label, w, g)
	}
}

// TestPathEvaluateConcurrent runs EVALUATE queries of several
// semirings on the path executor from many goroutines at once, as the
// server does: the evaluations share the pool of their arrays, and each
// must still give the interpreter's annotations.
func TestPathEvaluateConcurrent(t *testing.T) {
	e := NewEngine(fixture.MustSystem(fixture.Options{IncludeM3: true}))
	var queries []*Query
	var wants []*Result
	for _, text := range []string{
		paperQueries["Q5"], paperQueries["Q6"], paperQueries["Q7"],
		`EVALUATE TRUST OF { FOR [N $x] INCLUDE PATH [$x] <-+ [] RETURN $x }`,
		`EVALUATE WEIGHT OF { FOR [C $x] INCLUDE PATH [$x] <-+ [] RETURN $x } ASSIGNING EACH leaf_node $y { CASE $y in A : SET 3 DEFAULT : SET 1 }`,
	} {
		q := MustParse(text)
		want, err := ExecInterpreter(e, context.Background(), q, 0)
		if err != nil {
			t.Fatal(err)
		}
		queries, wants = append(queries, q), append(wants, want)
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				k := (g + i) % len(queries)
				got, err := e.Exec(context.Background(), queries[k], Options{Backend: "asr"})
				if err != nil {
					t.Error(err)
					return
				}
				for ref, wv := range wants[k].Annotations {
					if gv, ok := got.Annotations[ref]; !ok || !wants[k].Semiring.Eq(wv, gv) {
						t.Errorf("query %d: %v annotated %v, the interpreter %v", k, ref, gv, wv)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
