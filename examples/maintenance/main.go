// Incremental view maintenance (use case Q5): a curated database
// retracts a base record, and provenance determines which view tuples
// remain derivable — including the subtle case of derivation cycles
// that support each other but lost all external support.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/fixture"
	"repro/internal/model"
)

func main() {
	// The running example with mapping m3, which makes C and N derive
	// each other (a cyclic CDSS, as ORCHESTRA permits).
	ex, err := fixture.System(fixture.Options{IncludeM3: true})
	if err != nil {
		log.Fatal(err)
	}
	sys := core.Wrap(ex)

	show := func(header string) {
		fmt.Println(header)
		for _, rel := range []string{"A", "C", "N", "O"} {
			for _, row := range ex.DB.MustTable(rel).SortedRows() {
				fmt.Printf("  %s%s\n", rel, row.Format())
			}
		}
		fmt.Println()
	}
	show("Before retraction:")

	// Retract the curator-entered common name N(1, cn1, false). The
	// derived C(1,cn1) rests on it via m1 — and it, in turn, re-derives
	// N(1,cn1,false) via m3: a cycle with no remaining external
	// support, which must collapse together with O(cn1,7).
	report, err := sys.DeleteLocal("N", []model.Datum{int64(1), "cn1", false})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Retracted %d base tuple(s); maintenance removed %d derived tuple(s) and %d derivation(s),\n",
		report.LocalDeleted, report.TuplesDeleted, report.DerivationsDeleted)
	fmt.Printf("visiting only the affected subgraph (%d tuple(s), %d derivation(s)) through the provenance tables.\n\n",
		report.TuplesVisited, report.DerivationsVisited)
	show("After retraction:")

	fmt.Println("Note the C(1,cn1) ⇄ N(1,cn1,false) cycle collapsed: provenance-based")
	fmt.Println("derivability (the fixpoint of Section 2.1) sees that the cycle lost its")
	fmt.Println("only external support, which counting-based maintenance would miss.")
}
