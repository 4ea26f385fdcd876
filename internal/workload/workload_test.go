package workload

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/asr"
	"repro/internal/proql"
	"repro/internal/provgraph"
)

func TestBuildLinearChainPropagation(t *testing.T) {
	set, err := Build(Config{
		Topology:  Chain,
		Profile:   ProfileLinear,
		NumPeers:  5,
		DataPeers: UpstreamDataPeers(5, 2), // peers 4 and 3
		BaseSize:  10,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Peer 4's 10 tuples propagate to peers 3..0; peer 3's to 2..0.
	// A4=10, A3=10+10=20, A2=A1=A0=20.
	for p, want := range map[int]int{4: 10, 3: 20, 2: 20, 1: 20, 0: 20} {
		if got := set.Sys.DB.MustTable(ARel(p)).Len(); got != want {
			t.Errorf("A%d has %d rows, want %d", p, got, want)
		}
	}
	// Every peer has the reference partition.
	for p := 0; p < 5; p++ {
		if got := set.Sys.DB.MustTable(BRel(p)).Len(); got != 16 {
			t.Errorf("B%d has %d rows, want 16", p, got)
		}
	}
	// Provenance rows: one per propagated tuple per hop.
	if got := set.Sys.ProvRowCount(); got != 10+20*3 {
		t.Errorf("provenance rows = %d, want 70", got)
	}
}

func TestBuildBranchedPropagation(t *testing.T) {
	set, err := Build(Config{
		Topology:  Branched,
		Profile:   ProfileLinear,
		NumPeers:  7, // 4 branches off peer 0: 1←5, 2←6, 3, 4
		DataPeers: []int{3, 6},
		BaseSize:  5,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Peer 3's data flows 3→0; peer 6's flows 6→2→0.
	if got := set.Sys.DB.MustTable(ARel(0)).Len(); got != 10 {
		t.Errorf("A0 has %d rows, want 10", got)
	}
	if got := set.Sys.DB.MustTable(ARel(2)).Len(); got != 5 {
		t.Errorf("A2 has %d rows, want 5", got)
	}
	chains := set.AChains()
	// Disjoint decomposition into one downward path per branch.
	if len(chains) != 4 {
		t.Fatalf("chains = %v", chains)
	}
	seen := map[string]bool{}
	total := 0
	for _, c := range chains {
		total += len(c)
		for _, m := range c {
			if seen[m] {
				t.Errorf("mapping %s appears in two chains", m)
			}
			seen[m] = true
		}
	}
	if total != 6 {
		t.Errorf("chains cover %d mappings, want 6 (one per edge)", total)
	}
}

func TestFanProfileRuleGrowth(t *testing.T) {
	// The fan profile's unfolded-rule counts follow
	// f(d) = 1 + f(d-1)·(d-1)-ish growth: 1, 2, 5, 16 for d = 1..4.
	want := map[int]int{1: 1, 2: 2, 3: 5, 4: 16}
	for d := 1; d <= 4; d++ {
		set, err := Build(Config{
			Topology:  Chain,
			Profile:   ProfileFan,
			NumPeers:  6,
			DataPeers: DownstreamDataPeers(6, d),
			BaseSize:  4,
			Seed:      1,
		})
		if err != nil {
			t.Fatal(err)
		}
		comp, err := proql.CompileUnfold(set.Sys, proql.MustParse(set.TargetQuery()))
		if err != nil {
			t.Fatal(err)
		}
		if got := len(comp.Rules); got != want[d] {
			t.Errorf("d=%d: unfolded rules = %d, want %d", d, got, want[d])
		}
	}
}

func TestTargetQueryResultsMatchInstance(t *testing.T) {
	set, err := Build(Config{
		Topology:  Chain,
		Profile:   ProfileLinear,
		NumPeers:  6,
		DataPeers: UpstreamDataPeers(6, 2),
		BaseSize:  8,
		Seed:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := proql.NewEngine(set.Sys)
	res, err := eng.ExecString(set.TargetQuery())
	if err != nil {
		t.Fatal(err)
	}
	// Every A0 tuple is bound (all are derived).
	if got, want := len(res.SortedRefs("x")), set.Sys.DB.MustTable(ARel(0)).Len(); got != want {
		t.Errorf("bindings = %d, want %d", got, want)
	}
	// Derivability over the same query: everything true.
	ann, err := eng.ExecString(set.TargetAnnotationQuery())
	if err != nil {
		t.Fatal(err)
	}
	for ref, v := range ann.Annotations {
		if v != true {
			t.Errorf("%v not trusted", ref)
		}
	}
}

func TestASRSweepMatchesBaselineResults(t *testing.T) {
	set, err := Build(Config{
		Topology:  Chain,
		Profile:   ProfileLinear,
		NumPeers:  6,
		DataPeers: UpstreamDataPeers(6, 2),
		BaseSize:  10,
		Seed:      5,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := proql.NewEngine(set.Sys)
	rel := proql.Options{Backend: "relational"} // the rewrite applies to the translation only
	q := proql.MustParse(set.TargetQuery())
	base, err := eng.Exec(context.Background(), q, rel)
	if err != nil {
		t.Fatal(err)
	}
	check := func(label string, res *proql.Result) {
		t.Helper()
		if got, want := fmt.Sprint(res.SortedRefs("x")), fmt.Sprint(base.SortedRefs("x")); got != want {
			t.Errorf("%s: bindings %s, want %s", label, got, want)
		}
		if got, want := res.MustGraph().NumDerivations(), base.MustGraph().NumDerivations(); got != want {
			t.Errorf("%s: derivations %d, want %d", label, got, want)
		}
	}
	// The sweep's path-executor column must answer what it is timed
	// against.
	path, err := eng.Exec(context.Background(), q, proql.Options{Backend: "path"})
	if err != nil {
		t.Fatal(err)
	}
	if path.Stats.Backend != "path" {
		t.Fatalf("path column ran on %s", path.Stats.Backend)
	}
	check("path", path)
	for _, kind := range []asr.Kind{asr.CompletePath, asr.Subpath, asr.Prefix, asr.Suffix} {
		for _, maxLen := range []int{1, 2, 3, 5} {
			ix := asr.NewIndex(set.Sys)
			for _, chain := range set.AChains() {
				for _, seg := range SplitChain(chain, maxLen) {
					if _, err := ix.Define(kind, seg...); err != nil {
						t.Fatalf("%v len=%d: %v", kind, maxLen, err)
					}
				}
			}
			if err := ix.Materialize(); err != nil {
				t.Fatal(err)
			}
			eng.RewriteRules = ix.RewriteRules
			opt, err := eng.Exec(context.Background(), q, rel)
			if err != nil {
				t.Fatalf("%v len=%d: %v", kind, maxLen, err)
			}
			eng.RewriteRules = nil
			ix.DropAll()
			check(fmt.Sprintf("%v len=%d", kind, maxLen), opt)
		}
	}
}

func TestSplitChain(t *testing.T) {
	chain := []string{"a", "b", "c", "d", "e"}
	segs := SplitChain(chain, 2)
	if len(segs) != 3 || len(segs[0]) != 2 || len(segs[2]) != 1 {
		t.Errorf("segs = %v", segs)
	}
	segs = SplitChain(chain, 10)
	if len(segs) != 1 || len(segs[0]) != 5 {
		t.Errorf("segs = %v", segs)
	}
	if got := SplitChain(chain, 0); len(got) != 5 {
		t.Errorf("maxLen 0 should clamp to 1: %v", got)
	}
}

func TestDataPeerPlacements(t *testing.T) {
	up := UpstreamDataPeers(10, 3)
	if len(up) != 3 || up[0] != 9 || up[2] != 7 {
		t.Errorf("upstream = %v", up)
	}
	down := DownstreamDataPeers(10, 3)
	if len(down) != 3 || down[0] != 0 || down[2] != 2 {
		t.Errorf("downstream = %v", down)
	}
	all := AllDataPeers(4)
	if len(all) != 4 {
		t.Errorf("all = %v", all)
	}
}

func TestHarnessSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("harness smoke test is slow")
	}
	rows, err := RunFig7([]int{2, 3}, 4, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[1].UnfoldedRules <= rows[0].UnfoldedRules {
		t.Errorf("Fig7 rows = %+v (rules must grow)", rows)
	}
	srows, err := RunFig9(5, 2, []int{5, 10}, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(srows) != 2 || srows[1].ChainSize <= srows[0].ChainSize {
		t.Errorf("Fig9 rows = %+v (instance must grow)", srows)
	}
	exp, err := RunASRSweep(Config{
		Topology:  Chain,
		Profile:   ProfileLinear,
		NumPeers:  5,
		DataPeers: UpstreamDataPeers(5, 2),
		BaseSize:  10,
		Seed:      7,
	}, []int{1, 2}, []asr.Kind{asr.CompletePath, asr.Suffix}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Rows) != 4 || exp.Baseline <= 0 || exp.Path <= 0 {
		t.Errorf("ASR sweep: %d rows, baselines %v (relational) and %v (path)", len(exp.Rows), exp.Baseline, exp.Path)
	}
	mrows, err := RunMixed([]int{4}, 1, 20, 2, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(mrows) != 1 || mrows[0].DeltaTime <= 0 || mrows[0].FullRerunTime <= 0 ||
		mrows[0].ASRPatchTime <= 0 || mrows[0].ASRRematTime <= 0 {
		t.Errorf("mixed rows = %+v", mrows)
	}
	if mrows[0].DeltaDerivations <= 0 || mrows[0].TuplesVisited <= 0 {
		t.Errorf("mixed row counters empty: %+v", mrows[0])
	}
	ov, err := RunAnnotationOverhead(Config{
		Topology:  Chain,
		Profile:   ProfileLinear,
		NumPeers:  4,
		DataPeers: UpstreamDataPeers(4, 1),
		BaseSize:  10,
		Seed:      7,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ov.ProjectionTime <= 0 || ov.AnnotatedTime <= 0 {
		t.Errorf("overhead row = %+v", ov)
	}
}

// TestProQLSweepZeroBuildsAt100x runs the E14 backend sweep at 1× and
// 100× of the base setting and asserts the path backend's defining
// invariant at both points: the Q4-shaped multi-path query and the
// Q5-shaped annotation query evaluate with zero provgraph
// materializations.
func TestProQLSweepZeroBuildsAt100x(t *testing.T) {
	rows, err := RunProQL([]int{1, 100}, 6, 2, 4, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %+v", rows)
	}
	for _, r := range rows {
		if r.GraphBuilds != 0 {
			t.Errorf("scale %d: path arm materialized %d provenance graphs, want 0", r.Scale, r.GraphBuilds)
		}
		if r.GraphBuildTime <= 0 || r.GraphEvalTime <= 0 || r.ASRFirstTime <= 0 || r.ASREvalTime <= 0 {
			t.Errorf("scale %d: non-positive times: %+v", r.Scale, r)
		}
	}
	// The fixed-size B partitions don't scale with BaseSize, so the
	// whole-instance ratio is below 100x; 10x is the sanity floor.
	if rows[1].InstanceSize <= rows[0].InstanceSize*10 {
		t.Errorf("100x instance (%d tuples) did not scale over 1x (%d)", rows[1].InstanceSize, rows[0].InstanceSize)
	}

	// Q5 shape (derivability annotation) at the 100x point, same
	// invariant: annotation evaluation stays on the projected result,
	// never the full graph.
	set, err := Build(Config{
		Topology:  Chain,
		Profile:   ProfileLinear,
		NumPeers:  6,
		DataPeers: UpstreamDataPeers(6, 2),
		BaseSize:  400,
		Seed:      9,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := proql.NewEngine(set.Sys)
	before := provgraph.Builds()
	ann, err := eng.Exec(context.Background(), proql.MustParse(set.TargetAnnotationQuery()), proql.Options{Backend: "path"})
	if err != nil {
		t.Fatal(err)
	}
	if len(ann.Annotations) == 0 {
		t.Fatal("annotation query returned no annotations")
	}
	if got := provgraph.Builds() - before; got != 0 {
		t.Errorf("annotation query materialized %d provenance graphs, want 0", got)
	}
}

// TestTable1Annotations pins experiment E1: the annotation of
// O(cn1,7,true) in each Table 1 semiring, on the path executor and on
// the relational translation.
func TestTable1Annotations(t *testing.T) {
	want := []string{"true", "true", "secret", "3", "{A[i1|], N[i1|s3:cn1|F|]}",
		"A[i1|]∧N[i1|s3:cn1|F|]", "1", "A[i1|]^2*N[i1|s3:cn1|F|]"}
	for _, backend := range []string{"path", "relational"} {
		got, err := RunTable1(backend)
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		for i, name := range Table1Semirings {
			if got[i] != want[i] {
				t.Errorf("%s: %s = %s, want %s", backend, name, got[i], want[i])
			}
		}
	}
}
