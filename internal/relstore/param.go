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

// appendArgs appends the canonical encoding of vals to enc, reading a
// Param as its value in args; a Param args does not supply fails.
func appendArgs(enc []byte, vals, args []model.Datum) ([]byte, error) {
	for _, v := range vals {
		if p, ok := v.(Param); ok && int(p) < len(args) {
			v = args[p]
		}
		if p, ok := v.(Param); ok {
			_, err := p.Eval(nil)
			return nil, err
		}
		enc = model.AppendDatum(enc, v)
	}
	return enc, nil
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
// Each operator resolves the parameters in its run — lookup and probe
// keys when they are read, IndexJoin keys per probe, Filter predicates
// once — and Explain renders them the same way, so binding copies no
// node of the template and concurrent runs of one template share it.
type Bound struct {
	Plan Plan
	Args []model.Datum
}

func (b *Bound) run(db *Database, _ []model.Datum, yield func(model.Tuple) bool) error {
	return b.Plan.run(db, b.Args, yield)
}

// Arity implements Plan.
func (b *Bound) Arity() int { return b.Plan.Arity() }

func (b *Bound) explain(sb *strings.Builder, indent int, _ []model.Datum) {
	b.Plan.explain(sb, indent, b.Args)
}

// BindExpr returns e with every Param replaced by a Lit of its value in
// args. Subexpressions with no Param are shared, not copied.
func BindExpr(e Expr, args []model.Datum) Expr {
	out, _ := bindExpr(e, args)
	return out
}

// bindExpr reports whether it substituted anything below e.
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
