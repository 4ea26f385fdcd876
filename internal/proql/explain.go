package proql

import (
	"fmt"
	"strings"

	"repro/internal/proql/physplan"
	"repro/internal/relstore"
)

// Explain compiles a query without executing it and renders the
// backend's translation: for the relational backend (Section 4) the
// matched relations and mappings, every unfolded conjunctive rule
// (after ASR rewriting, if enabled), and each rule's physical plan —
// the plans an execution of the query runs; for the path backend the
// physical operator tree. opts routes the query exactly as it routes
// Eval, and the first line names the backend.
func (e *Engine) Explain(q *Query, opts Options) (string, error) {
	backend, err := route(opts)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "backend: %s\n", backend)
	if backend == "relational" {
		err = e.explainRelational(&sb, q)
	} else {
		err = e.explainPhys(&sb, q, opts.AsOfEpoch)
	}
	if err != nil {
		return "", err
	}
	return sb.String(), nil
}

// explainPhys renders the physical-plan pipeline's operator tree over
// a view of the snapshot at asOf (0: the live one).
func (e *Engine) explainPhys(sb *strings.Builder, q *Query, asOf uint64) error {
	g, release, err := e.bindPathView(asOf)
	if err != nil {
		return err
	}
	defer release()
	spec, err := e.lowerSpec(g, q, &physplan.Projection{})
	if err != nil {
		return err
	}
	plan, err := physplan.Compile(g, spec)
	if err != nil {
		return err
	}
	sb.WriteString(plan.ExplainString())
	return nil
}

// explainRelational renders the Section 4 pipeline: anchor, matched
// schema-graph fragment, unfolded rules, per-rule relational plans.
func (e *Engine) explainRelational(sb *strings.Builder, q *Query) error {
	up, err := e.planUnfold(e.Sys, q)
	if err != nil {
		return err
	}
	comp := up.comp
	fmt.Fprintf(sb, "anchor: %s ($%s)\n", comp.AnchorRel, comp.AnchorVar)
	fmt.Fprintf(sb, "matched relations: %s\n", strings.Join(comp.Allowed.SortedRelations(), ", "))
	fmt.Fprintf(sb, "matched mappings: %s\n", strings.Join(comp.Allowed.SortedMappings(), ", "))
	if e.RewriteRules != nil {
		fmt.Fprintf(sb, "ASR rewriting: enabled\n")
	}
	fmt.Fprintf(sb, "unfolded rules: %d\n", len(up.rules))
	for i, rp := range up.rules {
		r := rp.rule
		fmt.Fprintf(sb, "\n-- rule %d: %s :- ", i+1, r.Anchor)
		parts := make([]string, len(r.Body))
		for j, a := range r.Body {
			parts[j] = a.String()
		}
		sb.WriteString(strings.Join(parts, ", "))
		sb.WriteByte('\n')
		sb.WriteString(indent(relstore.Explain(rp.plan), "   "))
	}
	return nil
}

// ExplainString parses and explains a query.
func (e *Engine) ExplainString(query string, opts Options) (string, error) {
	q, err := Parse(query)
	if err != nil {
		return "", err
	}
	return e.Explain(q, opts)
}

func indent(s, prefix string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = prefix + l
	}
	return strings.Join(lines, "\n") + "\n"
}
