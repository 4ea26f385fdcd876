// Package workload generates the synthetic CDSS settings of Section
// 6.1: peer schemas derived from partitioning a SWISS-PROT-style
// 25-attribute universal relation into two relations with a shared
// key, inter-related by join mappings along chain (Figure 5) and
// branched (Figure 6) topologies, with large strings replaced by
// integer hashes (as the paper did).
//
// Two mapping profiles are provided, each matching the phenomenon its
// figures measure:
//
//   - ProfileLinear (Figures 9–13): each hop joins the propagated
//     partition A with the peer's local reference partition B. Unfolded
//     rule counts grow linearly with peers-with-data, so very long
//     chains (20–80 peers) with large base sizes are feasible; this is
//     the profile whose long provenance-relation join paths the ASR
//     experiments accelerate.
//   - ProfileFan (Figures 7–8): each hop joins two *propagated*
//     partitions (A with X), so the unfolding must consider all
//     combinations for each side of the join and the number of
//     unfolded rules grows exponentially with the number of peers
//     supplying local data — the paper's stress test.
//
// All generation is deterministic given a seed.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/exchange"
	"repro/internal/model"
	"repro/internal/wal"
)

// Profile selects the mapping structure.
type Profile int

// Profiles.
const (
	ProfileLinear Profile = iota
	ProfileFan
)

func (p Profile) String() string {
	if p == ProfileFan {
		return "fan"
	}
	return "linear"
}

// Topology selects the mapping graph shape.
type Topology int

// Topologies (Figures 5 and 6).
const (
	Chain Topology = iota
	Branched
)

func (t Topology) String() string {
	if t == Branched {
		return "branched"
	}
	return "chain"
}

// Config describes one synthetic setting.
type Config struct {
	Topology Topology
	Profile  Profile
	// NumPeers is the total number of peers; peer 0 is the target the
	// mappings propagate data toward.
	NumPeers int
	// DataPeers lists the peers with local contributions. For the
	// linear profile the paper places them at the authoritative
	// upstream end; for the fan profile the cascade is anchored at the
	// target. Helpers UpstreamDataPeers and DownstreamDataPeers build
	// the two placements.
	DataPeers []int
	// BaseSize is the number of locally inserted A-partition tuples
	// per data peer (the paper's "base size").
	BaseSize int
	// Categories is the cardinality of the reference partition B at
	// every peer (the A⋈B join fans out 1:1 through it).
	Categories int
	// Seed drives all random generation.
	Seed int64
}

// Defaults fills zero fields.
func (c *Config) defaults() {
	if c.NumPeers <= 0 {
		c.NumPeers = 2
	}
	if c.BaseSize <= 0 {
		c.BaseSize = 100
	}
	if c.Categories <= 0 {
		c.Categories = 16
	}
}

// UpstreamDataPeers places d data peers at the far (source) end of an
// n-peer topology — the paper's authoritative-sources placement.
func UpstreamDataPeers(n, d int) []int {
	var out []int
	for p := n - 1; p >= 0 && len(out) < d; p-- {
		out = append(out, p)
	}
	return out
}

// DownstreamDataPeers places d data peers nearest the target.
func DownstreamDataPeers(n, d int) []int {
	var out []int
	for p := 0; p < n && len(out) < d; p++ {
		out = append(out, p)
	}
	return out
}

// AllDataPeers marks every peer as contributing (Figure 7's stress
// test).
func AllDataPeers(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// Relation name helpers.
func ARel(p int) string { return fmt.Sprintf("A%d", p) }

// BRel names peer p's reference partition.
func BRel(p int) string { return fmt.Sprintf("B%d", p) }

// XRel names peer p's second propagated partition (fan profile).
func XRel(p int) string { return fmt.Sprintf("X%d", p) }

// AMapping names the mapping propagating A from peer src to its
// parent.
func AMapping(src int) string { return fmt.Sprintf("mA%d", src) }

// XMapping names the mapping propagating X from peer src to its
// parent (fan profile).
func XMapping(src int) string { return fmt.Sprintf("mX%d", src) }

// Setting is a generated CDSS instance.
type Setting struct {
	Config Config
	Schema *model.Schema
	Sys    *exchange.System
	// Edges lists the (child → parent) topology edges.
	Edges [][2]int
}

// BranchCount is the number of long branches in the branched topology
// (Figure 6 of the paper shows a tree with a few branch points and
// long linear runs, so query-time growth stays roughly linear in the
// number of peers — the Figure 10 claim).
const BranchCount = 4

// parentOf computes the topology parent of peer p (p > 0): the
// previous peer on the same branch, or the target for the first peer
// of each branch.
func parentOf(topo Topology, p int) int {
	if topo == Branched {
		if p-BranchCount >= 1 {
			return p - BranchCount
		}
		return 0
	}
	return p - 1
}

// Build generates the schema, creates the system, inserts seeded local
// data, and runs update exchange.
func Build(cfg Config) (*Setting, error) {
	set, err := BuildSchema(cfg)
	if err != nil {
		return nil, err
	}
	sys, err := exchange.NewSystem(set.Schema, exchange.Options{})
	if err != nil {
		return nil, err
	}
	set.Sys = sys
	if err := set.Seed(); err != nil {
		return nil, err
	}
	return set, nil
}

// OpenDurable is Build over persistent storage: the setting's system
// is opened from dir through the write-ahead-log store. A fresh
// directory is seeded and exchanged exactly as Build does; an existing
// one recovers its instance from the newest checkpoint plus the log
// suffix and re-attaches the engine warm — the deterministic seed is
// NOT re-inserted, so mutations applied in earlier processes survive.
func OpenDurable(cfg Config, dir string, wopts wal.Options) (*Setting, *wal.Store, error) {
	set, err := BuildSchema(cfg)
	if err != nil {
		return nil, nil, err
	}
	sys, st, err := exchange.OpenDurable(set.Schema, dir, wopts, exchange.Options{})
	if err != nil {
		return nil, nil, err
	}
	set.Sys = sys
	if sys.DB.TotalRows() == 0 {
		if err := set.Seed(); err != nil {
			st.Close()
			return nil, nil, err
		}
	}
	return set, st, nil
}

// Seed inserts the deterministic local data and runs the initial
// update exchange — the data half of Build, separated so durable
// settings can skip it when recovering an existing instance.
func (set *Setting) Seed() error {
	if err := set.insertData(); err != nil {
		return err
	}
	return set.Sys.Run()
}

// BuildSchema generates the schema and topology of a setting without
// creating a system — the schema half of Build, shared by the durable
// open path (which must declare the schema before recovery).
func BuildSchema(cfg Config) (*Setting, error) {
	cfg.defaults()
	schema := model.NewSchema()
	set := &Setting{Config: cfg, Schema: schema}

	// The universal relation's 25 attributes split into the A
	// partition (key, category, 10 payload hashes) and the B partition
	// (category, 12 payload hashes); the fan profile adds the X
	// partition (key, category, 10 payload hashes) standing in for a
	// second propagated projection of the universal relation.
	aCols := []model.Column{{Name: "k", Type: model.TypeInt}, {Name: "c", Type: model.TypeInt}}
	for i := 1; i <= 10; i++ {
		aCols = append(aCols, model.Column{Name: fmt.Sprintf("a%d", i), Type: model.TypeInt})
	}
	bCols := []model.Column{{Name: "c", Type: model.TypeInt}}
	for i := 1; i <= 12; i++ {
		bCols = append(bCols, model.Column{Name: fmt.Sprintf("b%d", i), Type: model.TypeInt})
	}
	xCols := []model.Column{{Name: "k", Type: model.TypeInt}, {Name: "c", Type: model.TypeInt}}
	for i := 1; i <= 10; i++ {
		xCols = append(xCols, model.Column{Name: fmt.Sprintf("x%d", i), Type: model.TypeInt})
	}

	for p := 0; p < cfg.NumPeers; p++ {
		if err := schema.AddRelation(model.MustRelation(ARel(p), aCols, "k")); err != nil {
			return nil, err
		}
		if err := schema.AddRelation(model.MustRelation(BRel(p), bCols, "c")); err != nil {
			return nil, err
		}
		if cfg.Profile == ProfileFan {
			if err := schema.AddRelation(model.MustRelation(XRel(p), xCols, "k")); err != nil {
				return nil, err
			}
		}
	}

	v := model.V
	aVars := func() []model.Term {
		out := []model.Term{v("k"), v("c")}
		for i := 1; i <= 10; i++ {
			out = append(out, v(fmt.Sprintf("a%d", i)))
		}
		return out
	}
	bVars := func() []model.Term {
		out := []model.Term{v("c")}
		for i := 1; i <= 12; i++ {
			out = append(out, v(fmt.Sprintf("b%d", i)))
		}
		return out
	}
	xVars := func() []model.Term {
		out := []model.Term{v("k"), v("c")}
		for i := 1; i <= 10; i++ {
			out = append(out, v(fmt.Sprintf("x%d", i)))
		}
		return out
	}

	for p := 1; p < cfg.NumPeers; p++ {
		parent := parentOf(cfg.Topology, p)
		set.Edges = append(set.Edges, [2]int{p, parent})
		switch cfg.Profile {
		case ProfileLinear:
			// A_parent(k,c,ā) :- A_p(k,c,ā), B_p(c,b̄)
			m := model.NewMapping(AMapping(p),
				model.Atom{Rel: ARel(parent), Args: aVars()},
				model.Atom{Rel: ARel(p), Args: aVars()},
				model.Atom{Rel: BRel(p), Args: bVars()},
			)
			if err := schema.AddMapping(m); err != nil {
				return nil, err
			}
		case ProfileFan:
			// A_parent :- A_p ⋈ X_p  (two propagated partitions)
			mA := model.NewMapping(AMapping(p),
				model.Atom{Rel: ARel(parent), Args: aVars()},
				model.Atom{Rel: ARel(p), Args: aVars()},
				model.Atom{Rel: XRel(p), Args: xVars()},
			)
			if err := schema.AddMapping(mA); err != nil {
				return nil, err
			}
			// X_parent :- X_p ⋈ B_p
			mX := model.NewMapping(XMapping(p),
				model.Atom{Rel: XRel(parent), Args: xVars()},
				model.Atom{Rel: XRel(p), Args: xVars()},
				model.Atom{Rel: BRel(p), Args: bVars()},
			)
			if err := schema.AddMapping(mX); err != nil {
				return nil, err
			}
		}
	}

	return set, nil
}

// insertData populates the reference partition B at every peer and the
// propagated partitions at the data peers, sampling attribute hashes
// from the seeded generator (the paper replaced SWISS-PROT CLOBs with
// integer hashes the same way).
func (set *Setting) insertData() error {
	cfg := set.Config
	rng := rand.New(rand.NewSource(cfg.Seed))
	for p := 0; p < cfg.NumPeers; p++ {
		rows := make([]model.Tuple, 0, cfg.Categories)
		for c := 0; c < cfg.Categories; c++ {
			row := model.Tuple{int64(c)}
			for i := 0; i < 12; i++ {
				row = append(row, int64(rng.Uint32()))
			}
			rows = append(rows, row)
		}
		if err := set.Sys.InsertLocal(BRel(p), rows...); err != nil {
			return err
		}
	}
	for _, p := range cfg.DataPeers {
		if p < 0 || p >= cfg.NumPeers {
			return fmt.Errorf("workload: data peer %d out of range", p)
		}
		aRows := make([]model.Tuple, 0, cfg.BaseSize)
		xRows := make([]model.Tuple, 0, cfg.BaseSize)
		for i := 0; i < cfg.BaseSize; i++ {
			k := int64(p)*10_000_000 + int64(i)
			c := int64(i % cfg.Categories)
			aRow := model.Tuple{k, c}
			for j := 0; j < 10; j++ {
				aRow = append(aRow, int64(rng.Uint32()))
			}
			aRows = append(aRows, aRow)
			if cfg.Profile == ProfileFan {
				xRow := model.Tuple{k, c}
				for j := 0; j < 10; j++ {
					xRow = append(xRow, int64(rng.Uint32()))
				}
				xRows = append(xRows, xRow)
			}
		}
		if err := set.Sys.InsertLocal(ARel(p), aRows...); err != nil {
			return err
		}
		if cfg.Profile == ProfileFan {
			if err := set.Sys.InsertLocal(XRel(p), xRows...); err != nil {
				return err
			}
		}
	}
	return nil
}

// TargetQuery is the experiment query of Section 6.1.2, anchored at
// the target peer's propagated relation:
//
//	FOR [A0 $x] INCLUDE PATH [$x] <-+ [] RETURN $x
func (set *Setting) TargetQuery() string {
	return fmt.Sprintf("FOR [%s $x] INCLUDE PATH [$x] <-+ [] RETURN $x", ARel(0))
}

// TargetAnnotationQuery is the target query wrapped in a TRUST
// evaluation (Section 6.1.2 notes annotation computation adds little
// over graph projection).
func (set *Setting) TargetAnnotationQuery() string {
	return fmt.Sprintf(`EVALUATE TRUST OF { %s } ASSIGNING EACH leaf_node $y { DEFAULT : SET true }`,
		set.TargetQuery())
}

// InstanceSize is the Figures 9–10 metric: total tuples across all
// relations and provenance tables.
func (set *Setting) InstanceSize() int {
	return set.Sys.DB.TotalRows()
}

// AChains returns edge-disjoint downward chains of A-propagation
// mappings covering the whole topology, ordered derived-end first —
// the paths the ASR experiments index. For the chain topology there is
// a single chain; for the branched topology the tree is decomposed
// into disjoint paths (first child continues the current path, other
// children start new ones), since the paper restricts ASR definitions
// to non-overlapping paths.
func (set *Setting) AChains() [][]string {
	children := make(map[int][]int)
	for _, e := range set.Edges {
		children[e[1]] = append(children[e[1]], e[0])
	}
	var chains [][]string
	var walk func(peer int, acc []string)
	walk = func(peer int, acc []string) {
		kids := children[peer]
		if len(kids) == 0 {
			if len(acc) > 0 {
				chains = append(chains, acc)
			}
			return
		}
		for i, kid := range kids {
			if i == 0 {
				walk(kid, append(acc, AMapping(kid)))
			} else {
				walk(kid, []string{AMapping(kid)})
			}
		}
	}
	walk(0, nil)
	return chains
}

// SplitChain cuts a mapping chain into consecutive segments of at most
// maxLen, the way Section 6.4 "splits the chain into paths up to this
// length".
func SplitChain(chain []string, maxLen int) [][]string {
	if maxLen <= 0 {
		maxLen = 1
	}
	var out [][]string
	for i := 0; i < len(chain); i += maxLen {
		j := i + maxLen
		if j > len(chain) {
			j = len(chain)
		}
		out = append(out, chain[i:j])
	}
	return out
}
