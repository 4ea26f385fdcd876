package relstore

import (
	"fmt"
	"strings"

	"repro/internal/model"
)

// Param is a parameter slot of a plan template: it stands for a value
// supplied when the plan runs, not when it is built, so one plan serves
// every query that differs from it only in constants. A Param is an
// Expr — in Filter predicates and IndexJoin keys — and may also stand
// in a datum position: a PKLookup key or an IndexProbe value. Bound
// supplies the values; a Param anywhere else, or one no Bound
// supplies, fails the plan when it runs.
type Param int

// Eval implements Expr: reached only when the slot is unbound.
func (p Param) Eval(model.Tuple) (model.Datum, error) {
	return nil, fmt.Errorf("relstore: parameter ?%d is not bound", int(p))
}

func (p Param) String() string { return fmt.Sprintf("?%d", int(p)) }

// checkBound reports a Param left in a datum position.
func checkBound(ds []model.Datum) error {
	for _, d := range ds {
		if p, ok := d.(Param); ok {
			_, err := p.Eval(nil)
			return err
		}
	}
	return nil
}

// ValueExpr is the expression of a datum that may be a Param: the
// Param itself, otherwise a Lit.
func ValueExpr(d model.Datum) Expr {
	if p, ok := d.(Param); ok {
		return p
	}
	return Lit{Val: d}
}

// Bound runs a plan template with parameter Param(i) read as Args[i].
// Streaming resolves the parameters as each operator opens — IndexJoin
// keys per probe, Filter predicates once — so binding copies no node of
// the pipeline; a materializing subtree (Run) is copied by Bind with its
// parameters substituted, as is the plan Explain renders.
type Bound struct {
	Plan Plan
	Args []model.Datum
}

// Run implements Plan.
func (b *Bound) Run(db *Database) ([]model.Tuple, error) { return Bind(b.Plan, b.Args).Run(db) }

// Arity implements Plan.
func (b *Bound) Arity() int { return b.Plan.Arity() }

func (b *Bound) explain(sb *strings.Builder, indent int) {
	Bind(b.Plan, b.Args).explain(sb, indent)
}

// Bind returns p with every Param replaced by its value in args, for
// the nodes a plan template is made of (scans, lookups, probes,
// filters, projections, joins). Nodes with no Param below them are
// shared, not copied.
func Bind(p Plan, args []model.Datum) Plan {
	out, _ := bindPlan(p, args)
	return out
}

// BindExpr is Bind for an expression.
func BindExpr(e Expr, args []model.Datum) Expr {
	out, _ := bindExpr(e, args)
	return out
}

// bindPlan reports whether it substituted anything below p.
func bindPlan(p Plan, args []model.Datum) (Plan, bool) {
	switch n := p.(type) {
	case *PKLookup:
		if key, ok := bindDatums(n.Key, args); ok {
			return &PKLookup{Table: n.Table, Key: key, Width: n.Width}, true
		}
	case *IndexProbe:
		if vals, ok := bindDatums(n.Vals, args); ok {
			return &IndexProbe{Table: n.Table, Cols: n.Cols, Vals: vals, Width: n.Width}, true
		}
	case *Filter:
		in, okIn := bindPlan(n.Input, args)
		pred, okPred := bindExpr(n.Pred, args)
		if okIn || okPred {
			return &Filter{Input: in, Pred: pred}, true
		}
	case *Project:
		if in, ok := bindPlan(n.Input, args); ok {
			return &Project{Input: in, Exprs: n.Exprs}, true
		}
	case *IndexJoin:
		left, okLeft := bindPlan(n.Left, args)
		keys, okKeys := bindExprs(n.Keys, args)
		if okLeft || okKeys {
			cp := *n
			cp.Left, cp.Keys = left, keys
			return &cp, true
		}
	case *HashJoin:
		left, okLeft := bindPlan(n.Left, args)
		right, okRight := bindPlan(n.Right, args)
		if okLeft || okRight {
			cp := *n
			cp.Left, cp.Right = left, right
			return &cp, true
		}
	}
	return p, false
}

func bindExpr(e Expr, args []model.Datum) (Expr, bool) {
	switch x := e.(type) {
	case Param:
		if int(x) < len(args) {
			return Lit{Val: args[x]}, true
		}
	case Cmp:
		l, okL := bindExpr(x.L, args)
		r, okR := bindExpr(x.R, args)
		if okL || okR {
			return Cmp{Op: x.Op, L: l, R: r}, true
		}
	case And:
		l, okL := bindExpr(x.L, args)
		r, okR := bindExpr(x.R, args)
		if okL || okR {
			return And{L: l, R: r}, true
		}
	case Or:
		l, okL := bindExpr(x.L, args)
		r, okR := bindExpr(x.R, args)
		if okL || okR {
			return Or{L: l, R: r}, true
		}
	case Not:
		if in, ok := bindExpr(x.E, args); ok {
			return Not{E: in}, true
		}
	}
	return e, false
}

func bindExprs(es []Expr, args []model.Datum) ([]Expr, bool) {
	var out []Expr
	for i, e := range es {
		if b, ok := bindExpr(e, args); ok {
			if out == nil {
				out = append([]Expr(nil), es...)
			}
			out[i] = b
		}
	}
	if out == nil {
		return es, false
	}
	return out, true
}

func bindDatums(ds []model.Datum, args []model.Datum) ([]model.Datum, bool) {
	var out []model.Datum
	for i, d := range ds {
		if p, ok := d.(Param); ok && int(p) < len(args) {
			if out == nil {
				out = append([]model.Datum(nil), ds...)
			}
			out[i] = args[p]
		}
	}
	if out == nil {
		return ds, false
	}
	return out, true
}
