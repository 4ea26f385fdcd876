package proql

import (
	"context"
	"testing"

	"repro/internal/fixture"
	"repro/internal/model"
	"repro/internal/semiring"
)

func refO(name string, h int64) model.TupleRef {
	return model.RefFromKey("O", []model.Datum{name, h})
}

func refA(id int64) model.TupleRef {
	return model.RefFromKey("A", []model.Datum{id})
}

func refC(id int64, name string) model.TupleRef {
	return model.RefFromKey("C", []model.Datum{id, name})
}

// execOn parses and runs a query under opts.
func execOn(e *Engine, text string, opts Options) (*Result, error) {
	return e.Exec(context.Background(), MustParse(text), opts)
}

func exampleEngine(t *testing.T) *Engine {
	t.Helper()
	return NewEngine(fixture.MustSystem(fixture.Options{}))
}

func TestSchemaGraphMatchTargetQuery(t *testing.T) {
	e := exampleEngine(t)
	sg := NewSchemaGraph(e.Sys.Schema)
	// [O] <-+ []: all simple backward paths out of O.
	path := MustParse(`FOR [O $x] <-+ [] RETURN $x`).Projection.For[0]
	insts, err := sg.MatchPath(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(insts) == 0 {
		t.Fatal("no instantiations")
	}
	all := Allowed{Relations: map[string]bool{}, Mappings: map[string]bool{}}
	for _, in := range insts {
		for _, r := range in.AllRelations() {
			all.Relations[r] = true
		}
		for _, m := range in.AllMappings() {
			all.Mappings[m] = true
		}
	}
	for _, m := range []string{"m1", "m2", "m4", "m5"} {
		if !all.Mappings[m] {
			t.Errorf("mapping %s should be reachable from O", m)
		}
	}
	for _, r := range []string{"O", "A", "C", "N"} {
		if !all.Relations[r] {
			t.Errorf("relation %s should be reachable from O", r)
		}
	}
}

func TestSchemaGraphMatchRestrictedEnd(t *testing.T) {
	e := exampleEngine(t)
	sg := NewSchemaGraph(e.Sys.Schema)
	path := MustParse(`FOR [C $x] <m1 [A $y] RETURN $x`).Projection.For[0]
	insts, err := sg.MatchPath(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(insts) != 1 {
		t.Fatalf("instantiations = %d, want 1", len(insts))
	}
	if insts[0].Rels[0] != "C" || insts[0].Rels[1] != "A" || insts[0].Chains[0][0] != "m1" {
		t.Errorf("instantiation = %+v", insts[0])
	}
	// Unknown relation errors.
	bad := MustParse(`FOR [Zzz $x] RETURN $x`).Projection.For[0]
	if _, err := sg.MatchPath(bad); err == nil {
		t.Error("unknown relation should error")
	}
}

func TestCompileTargetQueryRuleCount(t *testing.T) {
	e := exampleEngine(t)
	comp, err := CompileUnfold(e.Sys, MustParse(paperQueries["Q1"]))
	if err != nil {
		t.Fatal(err)
	}
	// O has no local data. Derivation-tree shapes:
	//   m4 ∘ A_l                                  (1)
	//   m5 ∘ (A_l, C_l)                           (1)
	//   m5 ∘ (A_l, m1 ∘ (A_l, N_l))               (1)
	if len(comp.Rules) != 3 {
		for _, r := range comp.Rules {
			t.Logf("rule: anchor=%s body=%v", r.Anchor, r.Body)
		}
		t.Fatalf("unfolded rules = %d, want 3", len(comp.Rules))
	}
}

func TestExecQ1GraphProjection(t *testing.T) {
	e := exampleEngine(t)
	opts := Options{Backend: "relational"} // the translation is what is checked
	res, err := execOn(e, paperQueries["Q1"], opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Backend != "relational" {
		t.Errorf("backend = %s", res.Stats.Backend)
	}
	// All four O tuples bound.
	refs := res.SortedRefs("x")
	if len(refs) != 4 {
		t.Fatalf("bindings = %d, want 4", len(refs))
	}
	// Subgraph: m4 fires twice, m5 twice, m1 once = 5 derivations.
	if res.MustGraph().NumDerivations() != 5 {
		t.Errorf("derivations = %d, want 5", res.MustGraph().NumDerivations())
	}
	// Every leaf of Figure 1 present.
	leafCount := 0
	for _, tn := range res.MustGraph().Tuples() {
		if tn.Leaf {
			leafCount++
		}
	}
	if leafCount != 4 {
		t.Errorf("leaves = %d, want 4", leafCount)
	}
}

func TestExecQ5Derivability(t *testing.T) {
	e := exampleEngine(t)
	res, err := e.ExecString(paperQueries["Q5"])
	if err != nil {
		t.Fatal(err)
	}
	if res.Semiring.Name() != "DERIVABILITY" {
		t.Fatalf("semiring = %v", res.Semiring)
	}
	if len(res.Annotations) != 4 {
		t.Fatalf("annotations = %d, want 4", len(res.Annotations))
	}
	for ref, v := range res.Annotations {
		if v != true {
			t.Errorf("%v should be derivable", ref)
		}
	}
}

func TestExecQ6Lineage(t *testing.T) {
	e := exampleEngine(t)
	res, err := e.ExecString(paperQueries["Q6"])
	if err != nil {
		t.Fatal(err)
	}
	v, ok := res.Annotations[refO("cn1", 7)]
	if !ok {
		t.Fatal("missing O(cn1,7)")
	}
	ls := v.(semiring.LineageSet)
	// Lineage of O(cn1,7): A(1) and N(1,cn1,false).
	if len(ls.IDs) != 2 || !ls.Contains(refA(1).String()) {
		t.Errorf("lineage = %v", ls.IDs)
	}
}

func TestExecQ7Trust(t *testing.T) {
	e := exampleEngine(t)
	res, err := e.ExecString(paperQueries["Q7"])
	if err != nil {
		t.Fatal(err)
	}
	// m4 is distrusted; A tuples with length >= 6 are distrusted.
	// O(sn1,7), O(sn2,5): only m4 → false.
	// O(cn1,7): m5 over A(1) (length 7 → false leaf) → false.
	// O(cn2,5): m5 over A(2) (length 5 → true) and C(2,cn2) (in C → true) → true.
	want := map[model.TupleRef]bool{
		refO("sn1", 7): false,
		refO("sn2", 5): false,
		refO("cn1", 7): false,
		refO("cn2", 5): true,
	}
	for ref, wantV := range want {
		got, ok := res.Annotations[ref]
		if !ok {
			t.Errorf("missing annotation for %v", ref)
			continue
		}
		if got != wantV {
			t.Errorf("trust(%v) = %v, want %v", ref, got, wantV)
		}
	}
}

func TestExecWeightQuery(t *testing.T) {
	e := exampleEngine(t)
	res, err := e.ExecString(`EVALUATE WEIGHT OF {
		FOR [O $x]
		INCLUDE PATH [$x] <-+ []
		RETURN $x
	} ASSIGNING EACH leaf_node $y {
		DEFAULT : SET 1
	}`)
	if err != nil {
		t.Fatal(err)
	}
	// O(cn1,7): m5 over A(1)=1 and C(1,cn1)=m1 over A(1)+N = 2 → 3.
	if v := res.Annotations[refO("cn1", 7)]; v != 3.0 {
		t.Errorf("weight(O(cn1,7)) = %v, want 3", v)
	}
	// O(sn1,7): m4 over A(1) → 1.
	if v := res.Annotations[refO("sn1", 7)]; v != 1.0 {
		t.Errorf("weight(O(sn1,7)) = %v, want 1", v)
	}
}

func TestExecCountQuery(t *testing.T) {
	e := exampleEngine(t)
	res, err := e.ExecString(`EVALUATE COUNT OF {
		FOR [C $x]
		INCLUDE PATH [$x] <-+ []
		RETURN $x
	}`)
	if err != nil {
		t.Fatal(err)
	}
	// C(2,cn2): local only → 1 derivation. C(1,cn1): via m1 → 1.
	if v := res.Annotations[refC(2, "cn2")]; v != int64(1) {
		t.Errorf("count(C(2,cn2)) = %v", v)
	}
	if v := res.Annotations[refC(1, "cn1")]; v != int64(1) {
		t.Errorf("count(C(1,cn1)) = %v", v)
	}
}

func TestExecProbabilityQuery(t *testing.T) {
	e := exampleEngine(t)
	res, err := e.ExecString(`EVALUATE PROBABILITY OF {
		FOR [O $x]
		INCLUDE PATH [$x] <-+ []
		RETURN $x
	}`)
	if err != nil {
		t.Fatal(err)
	}
	event := res.Annotations[refO("cn1", 7)].(semiring.DNF)
	// Event: A(1) ∧ N(1,cn1,false) (A(1) absorbed from the double use).
	if len(event.Monomials) != 1 || len(event.Monomials[0]) != 2 {
		t.Errorf("event = %s", event)
	}
}

func TestExecWhereOnAnchor(t *testing.T) {
	e := exampleEngine(t)
	res, err := e.ExecString(`FOR [O $x] WHERE $x.height >= 6 INCLUDE PATH [$x] <-+ [] RETURN $x`)
	if err != nil {
		t.Fatal(err)
	}
	refs := res.SortedRefs("x")
	if len(refs) != 2 {
		t.Fatalf("bindings = %d, want 2 (height 7 tuples)", len(refs))
	}
	for _, ref := range refs {
		if ref != refO("cn1", 7) && ref != refO("sn1", 7) {
			t.Errorf("unexpected binding %v", ref)
		}
	}
	// The projected subgraph must only contain derivations of the
	// selected tuples (goal-directed evaluation).
	for _, d := range res.MustGraph().Derivations() {
		for _, tgt := range d.Targets {
			if tgt.Ref.Rel == "O" && tgt.Ref != refO("cn1", 7) && tgt.Ref != refO("sn1", 7) {
				t.Errorf("unselected derivation for %v leaked into the output", tgt.Ref)
			}
		}
	}
}

func TestExecQ2PathRestriction(t *testing.T) {
	e := exampleEngine(t)
	opts := Options{Backend: "relational"} // the translation is what is checked
	res, err := execOn(e, paperQueries["Q2"], opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Backend != "relational" {
		t.Errorf("backend = %s", res.Stats.Backend)
	}
	// Every O tuple has a derivation passing through A.
	if got := len(res.SortedRefs("x")); got != 4 {
		t.Errorf("bindings = %d, want 4", got)
	}
}

func TestExecQ3GraphBackend(t *testing.T) {
	e := exampleEngine(t)
	res, err := e.ExecString(paperQueries["Q3"])
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Backend != "path" {
		t.Fatalf("backend = %s, want path", res.Stats.Backend)
	}
	// Tuples derived via m1 or m2: C(1,cn1), N(1,sn1,true), N(2,sn2,true).
	// One-step derivations *from* those tuples: C(1,cn1) feeds m5 → O(cn1,7).
	refs := res.SortedRefs("y")
	if len(refs) != 1 || refs[0] != refO("cn1", 7) {
		t.Errorf("Q3 bindings = %v, want [O(cn1,7)]", refs)
	}
	// The include path copies the one-step derivation m5.
	if res.MustGraph().NumDerivations() == 0 {
		t.Error("include path should copy the m5 derivation")
	}
}

func TestExecQ4CommonProvenance(t *testing.T) {
	e := exampleEngine(t)
	res, err := e.ExecString(paperQueries["Q4"])
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Backend != "path" {
		t.Fatalf("backend = %s, want path", res.Stats.Backend)
	}
	// Only C(1,cn1) has incoming derivations (C(2,cn2) is a pure leaf,
	// so [C $y] <-+ [$z] cannot match it). Pairs: O(cn1,7) shares A(1)
	// and N(1,cn1,false) with C(1,cn1); O(sn1,7) shares A(1).
	want := map[[2]model.TupleRef]bool{
		{refO("cn1", 7), refC(1, "cn1")}: false,
		{refO("sn1", 7), refC(1, "cn1")}: false,
	}
	for _, b := range res.Bindings {
		pair := [2]model.TupleRef{b["x"], b["y"]}
		if _, ok := want[pair]; !ok {
			t.Errorf("unexpected common-provenance pair %v", pair)
			continue
		}
		want[pair] = true
	}
	for pair, seen := range want {
		if !seen {
			t.Errorf("missing common-provenance pair %v", pair)
		}
	}
}

// TestBackendParity cross-checks the relational and path
// backends on the same annotation queries.
func TestBackendParity(t *testing.T) {
	e := exampleEngine(t)
	for name, text := range map[string]string{
		"derivability": paperQueries["Q5"],
		"trust":        paperQueries["Q7"],
		"projection":   paperQueries["Q1"],
	} {
		q := MustParse(text)
		rel, err := e.Exec(context.Background(), q, Options{})
		if err != nil {
			t.Fatalf("%s relational: %v", name, err)
		}
		gr, err := ExecInterpreter(e, context.Background(), q, 0)
		if err != nil {
			t.Fatalf("%s graph: %v", name, err)
		}
		relRefs := rel.SortedRefs("x")
		grRefs := gr.SortedRefs("x")
		if len(relRefs) != len(grRefs) {
			t.Errorf("%s: bindings %d vs %d", name, len(relRefs), len(grRefs))
			continue
		}
		for i := range relRefs {
			if relRefs[i] != grRefs[i] {
				t.Errorf("%s: binding %d: %v vs %v", name, i, relRefs[i], grRefs[i])
			}
		}
		if rel.MustGraph().NumDerivations() != gr.MustGraph().NumDerivations() {
			t.Errorf("%s: derivations %d vs %d", name, rel.MustGraph().NumDerivations(), gr.MustGraph().NumDerivations())
		}
		if rel.Annotations != nil {
			for ref, v := range rel.Annotations {
				gv, ok := gr.Annotations[ref]
				if !ok {
					t.Errorf("%s: path backend missing annotation for %v", name, ref)
					continue
				}
				if !rel.Semiring.Eq(v, gv) {
					t.Errorf("%s: annotation(%v) = %v vs %v", name, ref,
						rel.Semiring.Format(v), rel.Semiring.Format(gv))
				}
			}
		}
	}
}

func TestExecUnknownSemiring(t *testing.T) {
	e := exampleEngine(t)
	if _, err := e.ExecString(`EVALUATE BOGUS OF { FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x }`); err == nil {
		t.Error("unknown semiring should error")
	}
}

func TestExecSingleNodeNoInclude(t *testing.T) {
	e := exampleEngine(t)
	res, err := e.ExecString(`FOR [A $x] RETURN $x`)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.SortedRefs("x")); got != 2 {
		t.Errorf("bindings = %d, want 2", got)
	}
	if res.MustGraph().NumDerivations() != 0 {
		t.Errorf("no INCLUDE PATH → no derivations, got %d", res.MustGraph().NumDerivations())
	}
}

func TestExecNamedMappingEdge(t *testing.T) {
	e := exampleEngine(t)
	// C tuples derived via m1 in one step from A tuples.
	res, err := e.ExecString(`FOR [C $x] <m1 [A $y] INCLUDE PATH [$x] <m1 [$y] RETURN $x`)
	if err != nil {
		t.Fatal(err)
	}
	refs := res.SortedRefs("x")
	if len(refs) != 1 || refs[0] != refC(1, "cn1") {
		t.Errorf("bindings = %v, want [C(1,cn1)]", refs)
	}
}

func TestResultSortedRefsStable(t *testing.T) {
	e := exampleEngine(t)
	res, err := e.ExecString(paperQueries["Q1"])
	if err != nil {
		t.Fatal(err)
	}
	a := res.SortedRefs("x")
	b := res.SortedRefs("x")
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("SortedRefs not stable")
		}
	}
}
