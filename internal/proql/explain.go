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
// (after ASR rewriting, if enabled), and each rule's physical plan;
// for the asr backend (and its alias graph) the physical operator
// tree. opts routes the query exactly as it routes Eval; under auto
// the first line names the backend Eval would run and the reason (the
// deciding clause, or why the relational translation does not cover
// the query). The trailing plan-cache line reports hit/miss counters
// (a relational Explain consults the cache, so explaining a repeated
// shape counts a hit; the asr planner never does). A relational
// EXPLAIN renders the cached plan template bound to the query's
// literals — the plans an execution of the query runs.
func (e *Engine) Explain(q *Query, opts Options) (string, error) {
	backend, reason, err := e.route(q, opts)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	if backend == "relational" {
		err = e.explainRelational(&sb, q, reason)
		if nr, ok := err.(*ErrNotRelational); ok && reason != "" {
			backend, reason = "asr", nr.Reason
		}
	}
	if backend == "asr" {
		fmt.Fprintf(&sb, "backend: asr (%s)\n", reason)
		err = e.explainPhys(&sb, q, opts.AsOfEpoch)
	}
	if err != nil {
		return "", err
	}
	st := e.PlanCacheStats()
	fmt.Fprintf(&sb, "plan cache: %d entries, %d hits, %d misses\n", st.Entries, st.Hits, st.Misses)
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
// schema-graph fragment, unfolded rules, per-rule relational plans;
// a non-empty reason follows the backend name. It writes nothing when
// the query is not relational.
func (e *Engine) explainRelational(sb *strings.Builder, q *Query, reason string) error {
	t, err := e.relationalTemplate(e.Sys, q)
	if err != nil {
		return err
	}
	up, err := t.bind(q)
	if err != nil {
		return err
	}
	comp := t.comp
	if reason != "" {
		reason = " (" + reason + ")"
	}
	fmt.Fprintf(sb, "backend: relational%s\n", reason)
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
		sb.WriteString(indent(relstore.Explain(up.plans[i]), "   "))
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
