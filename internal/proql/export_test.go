package proql

import (
	"context"
	"unsafe"

	"repro/internal/model"
	"repro/internal/provgraph"
	"repro/internal/relstore"
)

// EvalCountingRuleRows runs q on the relational backend as Eval does,
// over the live snapshot, calling read on every row a rule plan yields
// to the consumer loop.
func EvalCountingRuleRows(e *Engine, q *Query, read func()) error {
	sys, release, err := e.snapshotAt(0)
	if err != nil {
		return err
	}
	defer release()
	t, err := e.relationalTemplate(sys, q)
	if err != nil {
		return err
	}
	up, err := t.bind(q)
	if err != nil {
		return err
	}
	for i, p := range up.plans {
		up.plans[i] = &relstore.Filter{Input: p, Pred: rowCounter(read)}
	}
	_, err = e.runUnfold(sys, q, t.comp, 0, up)
	return err
}

// rowCounter is a relstore predicate that holds for every row, calling
// itself on each.
type rowCounter func()

func (r rowCounter) Eval(model.Tuple) (model.Datum, error) {
	r()
	return true, nil
}

func (r rowCounter) String() string { return "count" }

// RulePlansBuilt is the number of relational rule plans built so far,
// by every engine: a plan-template hit builds none.
func RulePlansBuilt() int64 { return rulePlansBuilt.Load() }

// LinkedNodes is the number of provgraph nodes the result holds linked:
// 0 until Graph() links its recorded projection.
func (r *Result) LinkedNodes() int {
	if r.graph == nil {
		return 0
	}
	return r.graph.NumTuples() + r.graph.NumDerivations()
}

// ExecFilterOnTop is the oracle of the selection-pushdown differential:
// it runs q on the relational backend with the anchor WHERE condition
// kept out of planning altogether — every rule is planned as if the
// query had no WHERE (the constant-free plans), the anchor relation is
// scanned whole, and the condition is evaluated by one relstore Filter
// on top of each plan. This is where the condition sat before
// pushdown; nothing in it depends on the literal's type.
func (e *Engine) ExecFilterOnTop(q *Query, asOf uint64) (*Result, error) {
	sys, release, err := e.snapshotAt(asOf)
	if err != nil {
		return nil, err
	}
	defer release()
	comp, err := CompileUnfold(sys, q)
	if err != nil {
		return nil, err
	}
	bare := *q
	bare.Projection.Where = nil
	t, err := e.buildTemplate(sys, comp, &bare)
	if err != nil {
		return nil, err
	}
	up, err := t.bind(&bare)
	if err != nil {
		return nil, err
	}
	if where := q.Projection.Where; where != nil {
		ctx := &planContext{sys: sys}
		for i, rp := range up.rules {
			pred, err := condToExpr(ctx, where, rp.rule, rp.varCols, comp.AnchorVar)
			if err != nil {
				return nil, err
			}
			up.plans[i] = &relstore.Filter{Input: up.plans[i], Pred: pred}
		}
		if up.anchor != nil {
			varCols := make(map[string]int, len(comp.AnchorAtom.Args))
			for i, term := range comp.AnchorAtom.Args {
				varCols[term.Var] = i
			}
			pred, err := condToExpr(ctx, where, &ConjRule{Anchor: comp.AnchorAtom}, varCols, comp.AnchorVar)
			if err != nil {
				return nil, err
			}
			up.anchor = &relstore.Filter{Input: up.anchor, Pred: pred}
		}
	}
	res, err := e.runUnfold(sys, q, comp, asOf, up)
	if err != nil {
		return nil, err
	}
	res.Bindings = res.rows.bindings()
	return res, nil
}

// ExecInterpreter is the oracle of the ProQL differentials: it runs q
// on the tree-walking interpreter (execGraph) over a provenance graph
// built afresh from a snapshot pinned at asOf (0: the live epoch), so
// the backends are checked against a graph built straight from the
// tables. The result carries Bindings, as Exec's does.
func ExecInterpreter(e *Engine, ctx context.Context, q *Query, asOf uint64) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sys, release, err := e.snapshotAt(asOf)
	if err != nil {
		return nil, err
	}
	defer release()
	g, err := provgraph.Build(sys)
	if err != nil {
		return nil, err
	}
	res, err := e.execGraph(g, q)
	if err != nil {
		return nil, err
	}
	res.Stats.AsOf, res.Stats.Epoch = asOf, sys.DB.Epoch()
	res.Bindings = res.rows.bindings()
	return res, nil
}

// SharedDense reports the generation of e's shared dense tables: the
// epoch and definition version it holds, its tables by ordinal, and the
// bytes their arrays hold.
func SharedDense(e *Engine) (epoch, version uint64, tabs map[int]*denseTable, bytes int) {
	c := &e.dense
	c.mu.Lock()
	defer c.mu.Unlock()
	tabs = map[int]*denseTable{}
	if c.gen == nil {
		return 0, 0, tabs, 0
	}
	for ord, t := range c.gen.tabs {
		if t != nil {
			tabs[ord] = t
			bytes += t.held()
		}
	}
	return c.gen.epoch, c.gen.version, tabs, bytes
}

// SpareViews reports the path views e keeps for the next queries and
// the bytes their arrays hold.
func SpareViews(e *Engine) (views, bytes int) {
	e.views.mu.Lock()
	defer e.views.mu.Unlock()
	for _, v := range e.views.views {
		bytes += v.held()
	}
	return len(e.views.views), bytes
}

// SetSpareBytes sets the bound on the arrays a kept view holds,
// returning the old one.
func SetSpareBytes(n int) (old int) {
	old, spareBytes = spareBytes, n
	return old
}

// SharesRows reports whether dense tables a and b hold their rows in
// one array.
func SharesRows(a, b *denseTable) bool {
	return cap(a.rows) > 0 && unsafe.SliceData(a.rows) == unsafe.SliceData(b.rows)
}
