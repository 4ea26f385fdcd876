// Command proql is an interactive ProQL shell over the paper's running
// example (Example 2.1 / Figure 1) or a generated synthetic CDSS
// setting. It parses queries from stdin, prints bindings and
// annotations, and can export the provenance graph as Graphviz DOT.
//
// Usage:
//
//	proql                         # running example, interactive shell
//	proql -demo                   # run the paper's Q1–Q7 and exit
//	proql -dot out.dot            # write the Figure 1 graph and exit
//	proql -peers 8 -data 2 -base 100 -topology chain   # synthetic setting
//	proql -save s.json            # serialize the setting as JSON and exit
//	proql -load s.json            # load a setting from JSON
//	proql -backend relational -demo  # run the relational translation
//
// In the shell, prefix a query with "explain" to see the Section 4
// translation (matched mappings, unfolded rules, physical plans).
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/exchange"
	"repro/internal/fixture"
	"repro/internal/proql"
	"repro/internal/provgraph"
	"repro/internal/settingio"
	"repro/internal/workload"
)

func main() {
	var (
		demo     = flag.Bool("demo", false, "run the paper's example queries and exit")
		dotFile  = flag.String("dot", "", "write the provenance graph as DOT to this file and exit")
		peers    = flag.Int("peers", 0, "generate a synthetic setting with this many peers instead of the running example")
		dataN    = flag.Int("data", 2, "number of peers with local data (synthetic setting)")
		base     = flag.Int("base", 100, "base size per data peer (synthetic setting)")
		topology = flag.String("topology", "chain", "chain or branched (synthetic setting)")
		seed     = flag.Int64("seed", 42, "workload seed")
		loadFile = flag.String("load", "", "load a setting from a JSON file (see internal/settingio)")
		saveFile = flag.String("save", "", "save the setting as JSON and exit")
		backend  = flag.String("backend", "auto", "execution backend: path (goal-directed over the provenance tables, no graph build; auto is the same) or relational (the Section 4 translation, for the query shapes it covers)")
	)
	flag.Parse()

	var sys *exchange.System
	var anchor string
	var err error
	if *loadFile != "" {
		f, ferr := os.Open(*loadFile)
		if ferr != nil {
			fmt.Fprintln(os.Stderr, "proql:", ferr)
			os.Exit(1)
		}
		sys, err = settingio.Load(f, exchange.Options{})
		f.Close()
		if err == nil {
			if rels := sys.Schema.PublicRelations(); len(rels) > 0 {
				anchor = rels[0].Name
			}
		}
	} else {
		sys, anchor, err = buildSystem(*peers, *dataN, *base, *topology, *seed)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "proql:", err)
		os.Exit(1)
	}

	if *saveFile != "" {
		f, err := os.Create(*saveFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "proql:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := settingio.Save(f, sys); err != nil {
			fmt.Fprintln(os.Stderr, "proql:", err)
			os.Exit(1)
		}
		fmt.Printf("saved setting to %s\n", *saveFile)
		return
	}

	if *dotFile != "" {
		f, err := os.Create(*dotFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "proql:", err)
			os.Exit(1)
		}
		defer f.Close()
		g, err := provgraph.Build(sys)
		if err != nil {
			fmt.Fprintln(os.Stderr, "proql:", err)
			os.Exit(1)
		}
		if err := provgraph.WriteDOT(f, g, "provenance"); err != nil {
			fmt.Fprintln(os.Stderr, "proql:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d tuple nodes, %d derivations)\n", *dotFile, g.NumTuples(), g.NumDerivations())
		return
	}

	engine := proql.NewEngine(sys)
	opts := proql.Options{Backend: *backend}
	if *demo {
		runDemo(engine, opts)
		return
	}

	fmt.Printf("ProQL shell — anchor relation %s; terminate queries with ';', 'quit' to exit.\n", anchor)
	fmt.Printf("example: FOR [%s $x] INCLUDE PATH [$x] <-+ [] RETURN $x;\n", anchor)
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1024*1024), 1024*1024)
	var buf strings.Builder
	for {
		if buf.Len() == 0 {
			fmt.Print("proql> ")
		} else {
			fmt.Print("   ... ")
		}
		if !scanner.Scan() {
			return
		}
		line := scanner.Text()
		if strings.TrimSpace(line) == "quit" {
			return
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		text := buf.String()
		if !strings.Contains(text, ";") {
			continue
		}
		buf.Reset()
		text = strings.TrimSuffix(strings.TrimSpace(text), ";")
		if rest, ok := cutKeyword(text, "explain"); ok {
			out, err := engine.ExplainString(rest, opts)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Print(out)
			continue
		}
		res, err := run(engine, text, opts)
		if err != nil {
			fmt.Println("error:", err)
			continue
		}
		printResult(res)
	}
}

// run parses and executes one query under opts.
func run(engine *proql.Engine, text string, opts proql.Options) (*proql.Result, error) {
	q, err := proql.Parse(text)
	if err != nil {
		return nil, err
	}
	return engine.Exec(context.Background(), q, opts)
}

// cutKeyword strips a leading case-insensitive keyword.
func cutKeyword(text, kw string) (string, bool) {
	trimmed := strings.TrimSpace(text)
	if len(trimmed) > len(kw) && strings.EqualFold(trimmed[:len(kw)], kw) {
		return strings.TrimSpace(trimmed[len(kw):]), true
	}
	return text, false
}

func buildSystem(peers, dataN, base int, topology string, seed int64) (*exchange.System, string, error) {
	if peers <= 0 {
		sys, err := fixture.System(fixture.Options{})
		return sys, "O", err
	}
	topo := workload.Chain
	if topology == "branched" {
		topo = workload.Branched
	}
	set, err := workload.Build(workload.Config{
		Topology:  topo,
		Profile:   workload.ProfileLinear,
		NumPeers:  peers,
		DataPeers: workload.UpstreamDataPeers(peers, dataN),
		BaseSize:  base,
		Seed:      seed,
	})
	if err != nil {
		return nil, "", err
	}
	return set.Sys, workload.ARel(0), nil
}

func runDemo(engine *proql.Engine, opts proql.Options) {
	queries := []struct{ name, text string }{
		{"Q1 (derivations of O tuples)", `FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x`},
		{"Q2 (derivations involving A)", `FOR [O $x] <-+ [A $y] INCLUDE PATH [$x] <-+ [$y] RETURN $x`},
		{"Q3 (one-step derivations from m1/m2 results)", `FOR [$x] <$p [], [$y] <- [$x] WHERE $p = m1 OR $p = m2 INCLUDE PATH [$y] <- [$x] RETURN $y`},
		{"Q4 (common provenance)", `FOR [O $x] <-+ [$z], [C $y] <-+ [$z] INCLUDE PATH [$x] <-+ [], [$y] <-+ [] RETURN $x, $y`},
		{"Q5 (derivability)", `EVALUATE DERIVABILITY OF { FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x }`},
		{"Q6 (lineage)", `EVALUATE LINEAGE OF { FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x }`},
		{"Q7 (trust policies)", `EVALUATE TRUST OF {
			FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x
		} ASSIGNING EACH leaf_node $y {
			CASE $y in C : SET true
			CASE $y in A and $y.length >= 6 : SET false
			DEFAULT : SET true
		} ASSIGNING EACH mapping $p($z) {
			CASE $p = m4 : SET false
			DEFAULT : SET $z
		}`},
	}
	for _, q := range queries {
		fmt.Println("==", q.name)
		res, err := run(engine, q.text, opts)
		if err != nil {
			fmt.Println("error:", err)
			continue
		}
		printResult(res)
		fmt.Println()
	}
}

func printResult(res *proql.Result) {
	vars := map[string]bool{}
	for _, b := range res.Bindings {
		for v := range b {
			vars[v] = true
		}
	}
	for v := range vars {
		fmt.Printf("$%s:\n%s", v, core.FormatResult(res, v))
	}
	if len(vars) == 0 {
		fmt.Println("(no bindings)")
	}
}
