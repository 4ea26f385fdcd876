package proql

import (
	"fmt"

	"repro/internal/datalog"
	"repro/internal/exchange"
	"repro/internal/model"
)

// ConjRule is one unfolded conjunctive rule (Section 4.2.4): a flat
// body of base atoms — provenance relations, local-contribution
// relations, and terminal/side relation atoms — together with the
// derivation-tree skeleton used to evaluate semiring expressions and
// reconstruct derivation nodes. One ConjRule corresponds to one
// derivation-tree *shape* of the distinguished relation.
type ConjRule struct {
	// Anchor is the distinguished relation atom with post-unification
	// terms; its key terms identify the result tuple of each row.
	Anchor model.Atom
	// Body lists the base atoms joined by the rule, in tree preorder.
	Body []model.Atom
	// Tree is the derivation-tree skeleton rooted at the anchor.
	Tree *ExprNode
	// Prov lists the provenance-relation atoms (derivation nodes) of
	// the rule, for graph-projection output and ASR rewriting.
	Prov []ProvRef
}

// ProvRef identifies one provenance atom of a rule.
type ProvRef struct {
	// Mapping is the mapping whose derivation this atom represents.
	Mapping string
	// Terms are the provenance-attribute terms, parallel to the
	// mapping's ProvRel.Vars.
	Terms []model.Term
}

// ExprNode is a node of the derivation-tree skeleton.
type ExprNode struct {
	// Mapping is non-empty for mapping-application nodes.
	Mapping string
	// ProvIdx indexes ConjRule.Prov for mapping nodes; -1 otherwise.
	ProvIdx int
	// Leaf fields: the atom (by value, sharing terms with Body) and
	// the public relation it refers to. IsLocal marks R_l leaves;
	// terminal/side relation leaves have IsLocal false.
	Leaf    *model.Atom
	LeafRel string
	IsLocal bool
	// Children are the source subtrees of a mapping node, parallel to
	// the mapping's body atoms.
	Children []*ExprNode
}

// IsLeaf reports whether the node is a leaf (no mapping application).
func (n *ExprNode) IsLeaf() bool { return n.Mapping == "" }

// Compiled is the result of compiling a query for the relational
// backend.
type Compiled struct {
	Query     *Query
	AnchorRel string
	AnchorVar string
	// AnchorAtom is the fresh-variable anchor atom (x0..xn) shared by
	// all rules before unification specializes it per rule.
	AnchorAtom model.Atom
	Rules      []*ConjRule
	Allowed    Allowed
	// BaseRels are terminal relations (named rightmost path patterns):
	// their atoms are not unfolded further.
	BaseRels map[string]bool
}

// ErrNotRelational reports that a query needs the path backend.
type ErrNotRelational struct{ Reason string }

func (e *ErrNotRelational) Error() string {
	return "proql: query requires the path backend: " + e.Reason
}

// unfolder carries compilation state.
type unfolder struct {
	sys      *exchange.System
	allowed  Allowed
	baseRels map[string]bool
	fresh    int
	// maxRules guards against unbounded blowup on cyclic mapping sets.
	maxRules int
	produced int
}

// DefaultMaxUnfoldedRules caps unfolding; generous enough for the
// paper-scale experiments (hundreds of rules) while catching cyclic
// schema graphs, whose unfolding would not terminate (footnote 4: the
// paper's implementation likewise targets acyclic settings).
const DefaultMaxUnfoldedRules = 200000

// CompileUnfold compiles a query for the relational backend, or
// returns *ErrNotRelational if the query's shape requires the graph
// backend.
func CompileUnfold(sys *exchange.System, q *Query) (*Compiled, error) {
	proj := q.Projection
	if len(proj.For) != 1 {
		return nil, &ErrNotRelational{"multiple FOR path expressions"}
	}
	path := proj.For[0]
	anchor := path.Nodes[0]
	if anchor.Rel == "" {
		return nil, &ErrNotRelational{"anchor node pattern must name a relation"}
	}
	if anchor.Var == "" {
		return nil, &ErrNotRelational{"anchor node pattern must bind a variable"}
	}
	if len(proj.Return) != 1 || proj.Return[0] != anchor.Var {
		return nil, &ErrNotRelational{"RETURN must be exactly the anchor variable"}
	}
	for _, e := range path.Edges {
		if e.Var != "" {
			return nil, &ErrNotRelational{"derivation variables bind nodes, not schema paths"}
		}
	}
	if proj.Where != nil {
		if err := checkAnchorOnlyCond(proj.Where, anchor.Var); err != nil {
			return nil, err
		}
	}

	// Variables bound in FOR patterns carry their relation into the
	// INCLUDE PATH expressions ([$x] <-+ [] with $x bound to [O $x]
	// matches paths out of O).
	varRels := map[string]string{}
	for _, n := range path.Nodes {
		if n.Var != "" && n.Rel != "" {
			varRels[n.Var] = n.Rel
		}
	}
	matchPaths := append([]PathExpr(nil), proj.For...)
	for _, inc := range proj.Include {
		resolved := inc
		resolved.Nodes = append([]NodePattern(nil), inc.Nodes...)
		for i, n := range resolved.Nodes {
			if n.Rel == "" && n.Var != "" {
				if rel, ok := varRels[n.Var]; ok {
					resolved.Nodes[i].Rel = rel
				}
			}
		}
		matchPaths = append(matchPaths, resolved)
	}

	sg := NewSchemaGraph(sys.Schema)
	allowed, err := sg.MatchAll(matchPaths)
	if err != nil {
		return nil, err
	}
	baseRels := map[string]bool{}
	last := path.Nodes[len(path.Nodes)-1]
	if len(path.Nodes) > 1 && last.Rel != "" {
		baseRels[last.Rel] = true
	}

	// A recursive matched mapping set makes the Datalog program of
	// Section 4.2.3 recursive (footnote 4: the paper's implementation
	// targets acyclic settings) — route such queries to the graph
	// backend, whose fixpoint evaluation handles cycles.
	if allowedSetCyclic(sys, allowed, baseRels) {
		return nil, &ErrNotRelational{"recursive mapping set (cyclic provenance schema graph)"}
	}

	u := &unfolder{
		sys:      sys,
		allowed:  allowed,
		baseRels: baseRels,
		maxRules: DefaultMaxUnfoldedRules,
	}
	rel, ok := sys.Schema.Relation(anchor.Rel)
	if !ok {
		return nil, fmt.Errorf("proql: unknown relation %q", anchor.Rel)
	}
	args := make([]model.Term, rel.Arity())
	for i := range args {
		args[i] = model.V(fmt.Sprintf("x%d", i))
	}
	anchorAtom := model.Atom{Rel: rel.Name, Args: args}
	root := &wNode{atom: anchorAtom, state: statePending}
	start := &wRule{anchor: anchorAtom, root: root}
	rules, err := u.expand(start)
	if err != nil {
		return nil, err
	}
	out := make([]*ConjRule, 0, len(rules))
	for _, wr := range rules {
		cr := finalize(wr)
		// A FOR path with a named terminal relation only binds tuples
		// whose derivation passes through that relation: drop rule
		// shapes that never touch it.
		if len(baseRels) > 0 && !touchesAny(cr, baseRels) {
			continue
		}
		out = append(out, cr)
	}
	return &Compiled{
		Query:      q,
		AnchorRel:  anchor.Rel,
		AnchorVar:  anchor.Var,
		AnchorAtom: anchorAtom,
		Rules:      out,
		Allowed:    allowed,
		BaseRels:   baseRels,
	}, nil
}

// allowedSetCyclic detects derivation cycles among the allowed
// relations: an edge R → S when an allowed, non-terminal mapping
// derives R from S and S itself will be unfolded further.
func allowedSetCyclic(sys *exchange.System, allowed Allowed, baseRels map[string]bool) bool {
	adj := make(map[string][]string)
	for m := range allowed.Mappings {
		mp, ok := sys.Schema.Mapping(m)
		if !ok {
			continue
		}
		for _, h := range mp.Head {
			if baseRels[h.Rel] {
				continue
			}
			for _, b := range mp.Body {
				if allowed.Relations[b.Rel] && !baseRels[b.Rel] {
					adj[h.Rel] = append(adj[h.Rel], b.Rel)
				}
			}
		}
	}
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[string]int)
	var visit func(r string) bool
	visit = func(r string) bool {
		color[r] = gray
		for _, s := range adj[r] {
			switch color[s] {
			case gray:
				return true
			case white:
				if visit(s) {
					return true
				}
			}
		}
		color[r] = black
		return false
	}
	for r := range adj {
		if color[r] == white && visit(r) {
			return true
		}
	}
	return false
}

// touchesAny reports whether the rule's body contains an atom of any of
// the given relations (or their local-contribution tables).
func touchesAny(cr *ConjRule, rels map[string]bool) bool {
	for _, a := range cr.Body {
		if rels[a.Rel] || rels[localToPublic(a.Rel)] {
			return true
		}
	}
	return false
}

// checkAnchorOnlyCond verifies WHERE references only the anchor
// variable (pushable selections); anything else needs the graph
// backend.
func checkAnchorOnlyCond(c Cond, anchorVar string) error {
	switch cc := c.(type) {
	case CondCmp:
		for _, o := range []CmpOperand{cc.L, cc.R} {
			if o.Var != "" && o.Var != anchorVar {
				return &ErrNotRelational{fmt.Sprintf("WHERE references non-anchor variable $%s", o.Var)}
			}
		}
		return nil
	case CondIn:
		if cc.Var != anchorVar {
			return &ErrNotRelational{fmt.Sprintf("WHERE references non-anchor variable $%s", cc.Var)}
		}
		return nil
	case CondAnd:
		if err := checkAnchorOnlyCond(cc.L, anchorVar); err != nil {
			return err
		}
		return checkAnchorOnlyCond(cc.R, anchorVar)
	case CondOr:
		if err := checkAnchorOnlyCond(cc.L, anchorVar); err != nil {
			return err
		}
		return checkAnchorOnlyCond(cc.R, anchorVar)
	case CondNot:
		return checkAnchorOnlyCond(cc.E, anchorVar)
	case CondPath:
		return &ErrNotRelational{"existential path conditions"}
	}
	return &ErrNotRelational{"unsupported condition"}
}

// wNode states.
const (
	statePending = iota // public relation atom awaiting unfolding
	stateLocal          // resolved to a local-contribution leaf
	stateBase           // terminal or side relation leaf (materialized)
	stateMapping        // mapping application
)

// wNode is a working derivation-tree node.
type wNode struct {
	state    int
	atom     model.Atom // pending/leaf atom; for mapping nodes, unused
	mapping  string
	provAtom model.Atom // P_m atom for mapping nodes
	children []*wNode
}

// wRule is a working rule: the anchor atom plus the tree being
// expanded.
type wRule struct {
	anchor model.Atom
	root   *wNode
}

func cloneNode(n *wNode) *wNode {
	c := &wNode{
		state:    n.state,
		atom:     cloneAtom(n.atom),
		mapping:  n.mapping,
		provAtom: cloneAtom(n.provAtom),
	}
	for _, ch := range n.children {
		c.children = append(c.children, cloneNode(ch))
	}
	return c
}

func cloneAtom(a model.Atom) model.Atom {
	args := make([]model.Term, len(a.Args))
	copy(args, a.Args)
	return model.Atom{Rel: a.Rel, Args: args}
}

func cloneRule(r *wRule) *wRule {
	return &wRule{anchor: cloneAtom(r.anchor), root: cloneNode(r.root)}
}

// substituteRule applies a variable binding to every atom of the rule.
func substituteRule(r *wRule, binding map[string]model.Term) {
	sub := func(a model.Atom) model.Atom {
		args := make([]model.Term, len(a.Args))
		for i, t := range a.Args {
			if !t.IsConst {
				if b, ok := binding[t.Var]; ok {
					args[i] = b
					continue
				}
			}
			args[i] = t
		}
		return model.Atom{Rel: a.Rel, Args: args}
	}
	r.anchor = sub(r.anchor)
	var walk func(n *wNode)
	walk = func(n *wNode) {
		n.atom = sub(n.atom)
		n.provAtom = sub(n.provAtom)
		for _, ch := range n.children {
			walk(ch)
		}
	}
	walk(r.root)
}

// findPending returns the first pending node in preorder, or nil.
func findPending(n *wNode) *wNode {
	if n.state == statePending {
		return n
	}
	for _, ch := range n.children {
		if p := findPending(ch); p != nil {
			return p
		}
	}
	return nil
}

// expand drives the breadth-first unfolding. Exceeding the rule cap —
// which happens exactly when the matched mapping set is recursive, so
// the Datalog program of Section 4.2.3 would be recursive too
// (footnote 4) — reports ErrNotRelational so the engine falls back to
// the path backend, which handles cyclic provenance.
func (u *unfolder) expand(start *wRule) ([]*wRule, error) {
	queue := []*wRule{start}
	var done []*wRule
	for len(queue) > 0 {
		r := queue[0]
		queue = queue[1:]
		pending := findPending(r.root)
		if pending == nil {
			done = append(done, r)
			u.produced++
			if u.produced > u.maxRules {
				return nil, &ErrNotRelational{fmt.Sprintf("unfolding exceeded %d rules (recursive mapping set)", u.maxRules)}
			}
			continue
		}
		alts, err := u.alternatives(r, pending)
		if err != nil {
			return nil, err
		}
		queue = append(queue, alts...)
		if len(queue)+len(done) > 4*u.maxRules {
			return nil, &ErrNotRelational{fmt.Sprintf("unfolding frontier exceeded %d rules (recursive mapping set)", 4*u.maxRules)}
		}
	}
	return done, nil
}

// alternatives expands one pending node, returning one cloned rule per
// alternative derivation of its relation: the local contribution (if
// the relation's peer has local data) and one per allowed mapping whose
// head unifies.
func (u *unfolder) alternatives(r *wRule, pending *wNode) ([]*wRule, error) {
	relName := pending.atom.Rel
	rel, ok := u.sys.Schema.Relation(relName)
	if !ok {
		return nil, fmt.Errorf("proql: unknown relation %q during unfolding", relName)
	}
	var out []*wRule

	// Local-contribution alternative — only when the peer actually has
	// local data in the system unfolded (a query's snapshot), mirroring
	// the paper's setup where the number of peers with local data
	// drives the number of unfolded rules (Figure 8).
	if lt, ok := u.sys.DB.Table(rel.LocalName()); ok && !lt.Empty() {
		c := cloneRule(r)
		p := findPending(c.root)
		p.state = stateLocal
		p.atom.Rel = rel.LocalName()
		out = append(out, c)
	}

	for _, m := range u.sys.Schema.MappingsInto(relName) {
		if !u.allowed.Mappings[m.Name] {
			continue
		}
		pr := u.sys.Prov[m.Name]
		for hi, head := range m.Head {
			if head.Rel != relName {
				continue
			}
			c := cloneRule(r)
			p := findPending(c.root)
			u.fresh++
			suffix := fmt.Sprintf("_%d", u.fresh)
			rename := func(v string) string {
				if v == "_" {
					// Wildcards in mapping bodies become fresh
					// variables so distinct wildcards stay distinct.
					u.fresh++
					return fmt.Sprintf("w%d", u.fresh)
				}
				return v + suffix
			}
			rHead := m.Head[hi].Rename(rename)
			binding, ok := datalog.Unify(p.atom, rHead)
			if !ok {
				continue
			}
			// Build the mapping node: P atom + one child per body atom.
			p.state = stateMapping
			p.mapping = m.Name
			provArgs := make([]model.Term, len(pr.Vars))
			for i, v := range pr.Vars {
				provArgs[i] = model.V(rename(v))
			}
			p.provAtom = model.Atom{Rel: exchange.ProvTablePrefix + m.Name, Args: provArgs}
			for _, b := range m.Body {
				child := &wNode{atom: b.Rename(rename)}
				switch {
				case u.baseRels[b.Rel]:
					child.state = stateBase
				case u.allowed.Relations[b.Rel]:
					child.state = statePending
				default:
					// Side atom off the matched paths: fetch from the
					// materialized relation, treat as a leaf.
					child.state = stateBase
				}
				p.children = append(p.children, child)
			}
			substituteRule(c, binding)
			out = append(out, c)
		}
	}
	return out, nil
}

// finalize converts a fully expanded working rule into a ConjRule with
// preorder body atoms and the expression tree.
func finalize(r *wRule) *ConjRule {
	cr := &ConjRule{Anchor: r.anchor}
	var build func(n *wNode) *ExprNode
	build = func(n *wNode) *ExprNode {
		switch n.state {
		case stateMapping:
			provIdx := len(cr.Prov)
			cr.Prov = append(cr.Prov, ProvRef{Mapping: n.mapping, Terms: n.provAtom.Args})
			cr.Body = append(cr.Body, n.provAtom)
			en := &ExprNode{Mapping: n.mapping, ProvIdx: provIdx}
			for _, ch := range n.children {
				en.Children = append(en.Children, build(ch))
			}
			return en
		case stateLocal:
			cr.Body = append(cr.Body, n.atom)
			atom := n.atom
			return &ExprNode{
				ProvIdx: -1,
				Leaf:    &atom,
				LeafRel: localToPublic(n.atom.Rel),
				IsLocal: true,
			}
		default: // stateBase
			cr.Body = append(cr.Body, n.atom)
			atom := n.atom
			return &ExprNode{ProvIdx: -1, Leaf: &atom, LeafRel: n.atom.Rel}
		}
	}
	cr.Tree = build(r.root)
	return cr
}

// localToPublic strips the local-contribution suffix.
func localToPublic(name string) string {
	const suffix = "_l"
	if len(name) > len(suffix) && name[len(name)-len(suffix):] == suffix {
		return name[:len(name)-len(suffix)]
	}
	return name
}
