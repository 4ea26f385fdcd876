// Package asr implements access support relations for provenance
// (Section 5 of the paper): materialized joins of provenance relations
// along mapping paths, in four flavours (complete path, subpath,
// prefix, suffix), plus the greedy rewriting algorithm of Figure 4
// (unfoldASRs / unfoldPath / findHomomorphism) that substitutes ASRs
// into unfolded ProQL rules.
//
// Representation note: the paper materializes subpath/prefix/suffix
// ASRs with outer joins, padding the unindexed steps with NULLs. We
// materialize the same information as a union of inner joins over the
// indexed (sub)paths, each row tagged with a span discriminator column,
// which makes rewritten rules select exactly the rows of one subpath
// (no NULL-probing ambiguity) while preserving the storage/benefit
// trade-offs between ASR types that Figures 11–13 measure.
//
// The package is a reproduction library, driven directly by the
// Figs. 11–13 sweeps (workload.RunASRSweep, which sets
// Engine.RewriteRules on an engine pinned to the relational backend)
// and by the interleaved-churn harness (workload.RunMixed, which times
// its maintenance). core keeps no ASR: none beat the path executor on
// those figures (EXPERIMENTS E6–E8).
package asr

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/exchange"
	"repro/internal/model"
)

// Kind selects which (sub)paths of a mapping chain an ASR indexes
// (Section 5.1).
type Kind int

// ASR kinds.
const (
	// CompletePath indexes only the full chain (inner join).
	CompletePath Kind = iota
	// Subpath indexes every contiguous subpath (full outer join /
	// union of joins in the paper's construction).
	Subpath
	// Prefix indexes the chain and all its prefixes. A provenance path
	// runs from base tuples toward derived tuples, so prefixes are
	// anchored at the *source* end — they benefit queries returning
	// everything derivable from a particular base tuple (Section 6.4).
	Prefix
	// Suffix indexes the chain and all its suffixes, anchored at the
	// *derived* end — they benefit the target query, which looks for
	// paths starting anywhere but ending at a specific derived
	// relation (Section 6.4).
	Suffix
)

func (k Kind) String() string {
	switch k {
	case CompletePath:
		return "complete"
	case Subpath:
		return "subpath"
	case Prefix:
		return "prefix"
	case Suffix:
		return "suffix"
	}
	return "?"
}

// ParseKind resolves a kind name ("complete", "subpath", "prefix",
// "suffix").
func ParseKind(name string) (Kind, error) {
	switch strings.ToLower(name) {
	case "complete", "completepath", "complete-path":
		return CompletePath, nil
	case "subpath":
		return Subpath, nil
	case "prefix":
		return Prefix, nil
	case "suffix":
		return Suffix, nil
	}
	return 0, fmt.Errorf("asr: unknown ASR kind %q", name)
}

// Def is one ASR definition: a chain of mappings ordered from the
// derived (query-anchor) side toward the source side; consecutive
// mappings must connect (a source relation of chain[k] is a head
// relation of chain[k+1]).
type Def struct {
	Name  string
	Kind  Kind
	Chain []string

	// columns of the backing table: a span discriminator followed by
	// the provenance attributes of every chain position.
	columns []model.Column
	// colOf[k][i] is the table column of chain position k's i-th
	// provenance attribute.
	colOf [][]int
	// joins[k] connects position k to k+1.
	joins []joinStep
	// spans lists the indexed subpaths, ordered by decreasing length
	// (the Figure 4 rewriting order).
	spans []span
	// varNames are the canonical pattern variable names per chain
	// position, with connection columns sharing names (rewrite.go).
	varNames [][]string
}

// joinStep records the join columns between consecutive chain
// positions, as indices into each provenance relation's Vars.
type joinStep struct {
	rel      string // connecting relation
	downCols []int  // columns in P_chain[k] (source atom keys)
	upCols   []int  // columns in P_chain[k+1] (head atom keys)
}

// span is one indexed contiguous subpath [From..To] (inclusive).
type span struct {
	From, To int
}

func (s span) length() int { return s.To - s.From + 1 }

func (s span) tag() string { return fmt.Sprintf("%d:%d", s.From, s.To) }

// TableNamePrefix prefixes ASR table names.
const TableNamePrefix = "ASR_"

// NewDef validates and constructs an ASR definition over a system's
// mappings.
func NewDef(sys *exchange.System, kind Kind, chain []string) (*Def, error) {
	if len(chain) == 0 {
		return nil, fmt.Errorf("asr: empty mapping chain")
	}
	d := &Def{
		Name:  TableNamePrefix + strings.Join(chain, "_"),
		Kind:  kind,
		Chain: append([]string(nil), chain...),
	}
	d.columns = append(d.columns, model.Column{Name: "span", Type: model.TypeString})
	for k, m := range chain {
		pr, ok := sys.Prov[m]
		if !ok {
			return nil, fmt.Errorf("asr: unknown mapping %q", m)
		}
		cols := make([]int, len(pr.Vars))
		for i, v := range pr.Vars {
			cols[i] = len(d.columns)
			d.columns = append(d.columns, model.Column{
				Name: fmt.Sprintf("p%d_%s", k, v),
				Type: pr.Cols[i].Type,
			})
		}
		d.colOf = append(d.colOf, cols)
	}
	for k := 0; k+1 < len(chain); k++ {
		step, err := connect(sys, chain[k], chain[k+1])
		if err != nil {
			return nil, err
		}
		d.joins = append(d.joins, *step)
	}
	d.spans = spansFor(kind, len(chain))
	d.buildVarNames()
	return d, nil
}

// connect finds the relation linking two consecutive chain mappings
// and the corresponding provenance-attribute columns.
func connect(sys *exchange.System, down, up string) (*joinStep, error) {
	dpr := sys.Prov[down]
	upr := sys.Prov[up]
	if dpr == nil || upr == nil {
		return nil, fmt.Errorf("asr: unknown mapping in chain %s→%s", down, up)
	}
	for _, src := range dpr.Mapping.Body {
		for _, head := range upr.Mapping.Head {
			if src.Rel != head.Rel {
				continue
			}
			rel, ok := sys.Schema.Relation(src.Rel)
			if !ok {
				return nil, fmt.Errorf("asr: unknown relation %q", src.Rel)
			}
			var dCols, uCols []int
			ok = true
			for _, k := range rel.Key {
				dt, ut := src.Args[k], head.Args[k]
				if dt.IsConst || ut.IsConst {
					// Constant key positions join only if both sides
					// fix the same constant (m1 consuming N(…,false)
					// never connects to m2 producing N(…,true)).
					if dt.IsConst && ut.IsConst && model.Equal(dt.Const, ut.Const) {
						continue
					}
					ok = false
					break
				}
				dc := provColOf(dpr, dt)
				uc := provColOf(upr, ut)
				if dc < 0 || uc < 0 {
					ok = false
					break
				}
				dCols = append(dCols, dc)
				uCols = append(uCols, uc)
			}
			if ok {
				return &joinStep{rel: src.Rel, downCols: dCols, upCols: uCols}, nil
			}
		}
	}
	return nil, fmt.Errorf("asr: mappings %s and %s are not connected (no shared relation)", down, up)
}

// provColOf finds a key term's column in the provenance relation; -1
// for constants (which need no join column).
func provColOf(pr *exchange.ProvRel, t model.Term) int {
	if t.IsConst {
		return -1
	}
	for i, v := range pr.Vars {
		if v == t.Var {
			return i
		}
	}
	return -1
}

// spansFor enumerates the indexed subpaths of a kind, longest first.
// Def.Chain is ordered derived-end first (chain[0] is the mapping
// nearest the derived tuples), while the paper's prefix/suffix naming
// follows the path direction base→derived: a path *prefix* is anchored
// at the source end (spans [i..n-1] here) and a *suffix* at the
// derived end (spans [0..j]).
func spansFor(kind Kind, n int) []span {
	var out []span
	switch kind {
	case CompletePath:
		out = append(out, span{0, n - 1})
	case Suffix:
		for j := n - 1; j >= 0; j-- {
			out = append(out, span{0, j})
		}
	case Prefix:
		for i := 0; i < n; i++ {
			out = append(out, span{i, n - 1})
		}
	case Subpath:
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				out = append(out, span{i, j})
			}
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].length() > out[b].length() })
	return out
}

// Spans exposes the indexed subpaths as (from, to) pairs; for tests
// and tooling.
func (d *Def) Spans() [][2]int {
	out := make([][2]int, len(d.spans))
	for i, s := range d.spans {
		out[i] = [2]int{s.From, s.To}
	}
	return out
}

// Width returns the backing table's column count.
func (d *Def) Width() int { return len(d.columns) }
