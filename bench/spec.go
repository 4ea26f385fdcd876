package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/proql"
	"repro/internal/workload"
)

// Flush policy of the durable workload, fixed and stated so both sides
// of any comparison run the same one.
const (
	syncEvery       = 1
	checkpointEvery = 256
	// churnBatch rows are inserted and deleted per write request.
	churnBatch = 5
)

// class is the kind of one request; latencies are kept per class because
// the classes differ 2–1000× in cost and a pooled median would sit on the
// boundary between two of them.
type class int

const (
	cPoint     class = iota // point provenance query, backend auto
	cGraph                  // point query, backend graph
	cASR                    // point query, backend asr
	cRange                  // range query over the churned keys (isolation check)
	cTarget                 // whole-target projection, backend auto
	cTargetASR              // the same on asr
	cTrust                  // TRUST-annotated target, backend auto
	cMultipath              // common-provenance multi-path query, backend graph
	cInsert
	cDelete
	numClasses
)

func (c class) isQuery() bool { return c < cInsert }

// role is what one client does; a client repeats its role's rotation of
// requests, one round after another, waiting for each reply.
type role int

const (
	rolePoint       role = iota // point queries on auto, uniform over the target keys
	roleAnalytic                // rotation of the four heavy shapes
	roleWriter                  // insert churnBatch fresh rows at the far upstream peer, delete them
	roleChurnReader             // point queries alternating graph/asr, every 7th a range read of the churned keys
)

// spec is one workload: the instance proqld serves and the clients that
// drive it.
type spec struct {
	name              string
	peers, data, base int
	durable           bool
	retain            int
	roles             []role
	// traceRounds is the length, in rounds per client, of the op prefix
	// the traced run replays in-process; fixed so its counts repeat.
	traceRounds int
}

var specs = []spec{
	{name: "point-read", peers: 10, data: 2, base: 500, roles: []role{rolePoint, rolePoint}, traceRounds: 150},
	{name: "analytic-read", peers: 20, data: 3, base: 500, roles: []role{roleAnalytic, roleAnalytic}, traceRounds: 1},
	{name: "write-durable", peers: 20, data: 3, base: 500, durable: true, retain: 64, roles: []role{roleWriter}, traceRounds: 120},
	{name: "mixed-churn", peers: 10, data: 2, base: 500, retain: 64, roles: []role{roleWriter, roleChurnReader}, traceRounds: 40},
}

func specByName(name string) (spec, bool) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// config is the setting proqld builds from -peers/-data/-base/-seed.
func (sp spec) config(seed int64) workload.Config {
	return workload.Config{
		Topology:  workload.Chain,
		Profile:   workload.ProfileLinear,
		NumPeers:  sp.peers,
		DataPeers: workload.UpstreamDataPeers(sp.peers, sp.data),
		BaseSize:  sp.base,
		Seed:      seed,
	}
}

// writeRel is the far upstream peer's relation: rows inserted there
// propagate down the whole chain to the target A0.
func (sp spec) writeRel() string { return workload.ARel(sp.peers - 1) }

// churnKeys are fresh keys just past the seeded ones of the write peer.
func (sp spec) churnKeys() []int64 {
	keys := make([]int64, churnBatch)
	for j := range keys {
		keys[j] = int64(sp.peers-1)*10_000_000 + int64(sp.base) + int64(j)
	}
	return keys
}

const (
	pointFmt = "FOR [A0 $x] WHERE $x.k = %d INCLUDE PATH [$x] <-+ [] RETURN $x"
	rangeFmt = "FOR [A0 $x] WHERE $x.k >= %d AND $x.k <= %d INCLUDE PATH [$x] <-+ [] RETURN $x"
	// multipathQuery is the E14 cliff: pairs of target and A1 tuples
	// sharing provenance.
	multipathQuery = "FOR [A0 $x] <-+ [$z], [A1 $y] <-+ [$z] RETURN $x, $y"
)

// op is one request, in a form both the HTTP clients and the in-process
// replay can issue.
type op struct {
	class   class
	query   string // reads
	backend string
	rel     string    // writes
	rows    [][]int64 // insert: full rows (every column of an A relation is an integer)
	keys    []int64   // delete: primary keys
	// want is the expected bindings of a read over data no writer
	// touches; nil for writes and for range reads of the churned keys.
	want map[string][]string
}

func (o op) tuples() []model.Tuple {
	out := make([]model.Tuple, len(o.rows))
	for i, r := range o.rows {
		t := make(model.Tuple, len(r))
		for j, v := range r {
			t[j] = v
		}
		out[i] = t
	}
	return out
}

func (o op) keyDatums() [][]model.Datum {
	out := make([][]model.Datum, len(o.keys))
	for i, k := range o.keys {
		out[i] = []model.Datum{k}
	}
	return out
}

// stream is one client's seeded request stream: op i of the stream is
// next(i), and rot consecutive ops form a round.
type stream struct {
	rot  int
	next func(i int) op
}

// streams builds every client's request stream from the seed: the same
// seed gives the same requests, over HTTP and in the traced replay.
func (sp spec) streams(seed int64, or *oracle) []stream {
	out := make([]stream, len(sp.roles))
	for ci, r := range sp.roles {
		rng := rand.New(rand.NewSource(seed*1000 + int64(ci)))
		switch r {
		case rolePoint:
			out[ci] = stream{rot: 1, next: func(int) op {
				return or.pointOp(cPoint, "auto", rng)
			}}
		case roleAnalytic:
			shapes := []op{
				{class: cTarget, query: or.targetQuery, backend: "auto", want: or.shapes[cTarget]},
				{class: cTargetASR, query: or.targetQuery, backend: "asr", want: or.shapes[cTargetASR]},
				{class: cTrust, query: or.trustQuery, backend: "auto", want: or.shapes[cTrust]},
				{class: cMultipath, query: multipathQuery, backend: "graph", want: or.shapes[cMultipath]},
			}
			// The second client starts half a rotation in, so the two do
			// not run the same shape in lockstep.
			off := 2 * ci
			out[ci] = stream{rot: len(shapes), next: func(i int) op { return shapes[(i+off)%len(shapes)] }}
		case roleWriter:
			rel, keys := sp.writeRel(), sp.churnKeys()
			out[ci] = stream{rot: 2, next: func(i int) op {
				if i%2 == 1 {
					return op{class: cDelete, rel: rel, keys: keys}
				}
				rows := make([][]int64, len(keys))
				for j, k := range keys {
					row := []int64{k, int64(j % 16)}
					for a := 0; a < 10; a++ {
						row = append(row, int64(rng.Uint32()))
					}
					rows[j] = row
				}
				return op{class: cInsert, rel: rel, rows: rows}
			}}
		case roleChurnReader:
			keys := sp.churnKeys()
			// 7 is odd, so the range read alternates backends too.
			out[ci] = stream{rot: 14, next: func(i int) op {
				c, backend := cGraph, "graph"
				if i%2 == 1 {
					c, backend = cASR, "asr"
				}
				if i%7 == 6 {
					return op{class: cRange, backend: backend,
						query: fmt.Sprintf(rangeFmt, keys[0], keys[len(keys)-1])}
				}
				return or.pointOp(c, backend, rng)
			}}
		}
	}
	return out
}

// oracle holds the answers the served system must give, computed by the
// same library in this process on the same seeded setting.
type oracle struct {
	targetQuery, trustQuery string
	keys                    []int64          // keys of the target relation A0
	point                   map[int64]string // key → rendered ref
	shapes                  [numClasses]map[string][]string
	churnRefs               []string // rendered A0 refs of the churned keys, sorted
	target                  []string // rendered refs of every A0 tuple at the seed state, sorted
}

// fingerprint is the whole target relation with or without the churned
// rows: the two states a crash may leave.
func (or *oracle) fingerprint(withChurn bool) []string {
	if !withChurn {
		return or.target
	}
	// Keys of one setting have equal width, so string order is key order.
	all := append(append([]string(nil), or.target...), or.churnRefs...)
	sort.Strings(all)
	return all
}

func (or *oracle) pointOp(c class, backend string, rng *rand.Rand) op {
	k := or.keys[rng.Intn(len(or.keys))]
	return op{class: c, backend: backend, query: fmt.Sprintf(pointFmt, k),
		want: map[string][]string{"x": {or.point[k]}}}
}

// renderRef is how proqld prints a tuple ref in a query response.
func renderRef(ref model.TupleRef) string { return ref.Rel + "(" + ref.Key + ")" }

// bindingsOf renders a result the way proqld's query handler does:
// distinct sorted refs per RETURN variable.
func bindingsOf(res *proql.Result) map[string][]string {
	out := map[string][]string{}
	for _, b := range res.Bindings {
		for v := range b {
			if _, done := out[v]; done {
				continue
			}
			refs := res.SortedRefs(v)
			s := make([]string, len(refs))
			for i, ref := range refs {
				s[i] = renderRef(ref)
			}
			out[v] = s
		}
	}
	return out
}

func buildOracle(sp spec, seed int64) (*oracle, error) {
	set, err := workload.Build(sp.config(seed))
	if err != nil {
		return nil, err
	}
	sys := core.Wrap(set.Sys)
	or := &oracle{
		targetQuery: set.TargetQuery(),
		trustQuery:  set.TargetAnnotationQuery(),
		point:       map[int64]string{},
	}
	exec := func(query, backend string) (map[string][]string, *proql.Result, error) {
		q, err := proql.Parse(query)
		if err != nil {
			return nil, nil, err
		}
		res, err := sys.Engine().Exec(context.Background(), q, proql.Options{Backend: backend})
		if err != nil {
			return nil, nil, fmt.Errorf("oracle %q on %s: %w", query, backend, err)
		}
		return bindingsOf(res), res, nil
	}
	_, res, err := exec("FOR [A0 $x] RETURN $x", "auto")
	if err != nil {
		return nil, err
	}
	for _, ref := range res.SortedRefs("x") {
		key, err := ref.KeyDatums()
		if err != nil {
			return nil, err
		}
		k, ok := key[0].(int64)
		if !ok || len(key) != 1 {
			return nil, fmt.Errorf("oracle: unexpected A0 key %v", key)
		}
		or.keys = append(or.keys, k)
		or.point[k] = renderRef(ref)
		or.target = append(or.target, renderRef(ref))
	}
	sort.Slice(or.keys, func(i, j int) bool { return or.keys[i] < or.keys[j] })
	for _, k := range sp.churnKeys() {
		or.churnRefs = append(or.churnRefs, renderRef(model.RefFromKey("A0", []model.Datum{k})))
	}
	sort.Strings(or.churnRefs)
	for _, r := range sp.roles {
		if r != roleAnalytic {
			continue
		}
		for c, qb := range map[class][2]string{
			cTarget:    {or.targetQuery, "auto"},
			cTargetASR: {or.targetQuery, "asr"},
			cTrust:     {or.trustQuery, "auto"},
			cMultipath: {multipathQuery, "graph"},
		} {
			if or.shapes[c], _, err = exec(qb[0], qb[1]); err != nil {
				return nil, err
			}
		}
		break
	}
	return or, nil
}

func sameBindings(got, want map[string][]string) bool {
	if len(got) != len(want) {
		return false
	}
	for v, w := range want {
		g, ok := got[v]
		if !ok || len(g) != len(w) {
			return false
		}
		for i := range w {
			if g[i] != w[i] {
				return false
			}
		}
	}
	return true
}
