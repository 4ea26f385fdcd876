package asr

import (
	"repro/internal/exchange"
	"repro/internal/model"
	"repro/internal/relstore"
)

// This file is the incremental half of ASR management. Materialize
// (index.go) rebuilds every backing table by re-joining whole
// provenance relations; the paper's amortization argument for ASRs,
// however, assumes the indexes persist across updates. ApplyInsertions
// and ApplyDeletions patch the backing tables directly from update
// exchange's insertion/deletion reports — the same deltas that keep
// the engine journals and the cached provenance graph alive — so the
// steady-state update path never re-materializes: cost scales with the
// provenance rows that changed, not the instance. Materialize remains
// the fallback for full runs (no delta to patch from) and for
// definition changes.

// ApplyInsertions patches every definition's backing table with the
// ASR rows arising from the report's new derivations. For each span
// and each chain position holding new provenance rows, the new rows
// are joined leftward against pre-insertion rows only and rightward
// against the full (old ∪ new) rows — the classic delta-join
// decomposition under which every new combination is produced exactly
// once (at its leftmost delta position). A Full report carries no
// delta, so it falls back to Materialize.
func (ix *Index) ApplyInsertions(report *exchange.InsertionReport) error {
	if len(ix.defs) == 0 || report == nil {
		return nil
	}
	if report.Full {
		return ix.Materialize()
	}
	if len(report.InsertedDerivations) == 0 {
		return nil
	}
	ix.sys.DB.BeginBatch()
	defer ix.sys.DB.EndBatch()
	delta := make(map[string][]model.Tuple)
	for _, d := range report.InsertedDerivations {
		delta[d.Mapping] = append(delta[d.Mapping], d.Row)
	}
	for _, d := range ix.defs {
		touched := false
		for _, m := range d.Chain {
			if len(delta[m]) > 0 {
				touched = true
				break
			}
		}
		if !touched {
			continue
		}
		if err := ix.patchDefInsert(d, delta); err != nil {
			// A half-applied patch must not survive as a silently
			// stale index: rebuild this definition from scratch.
			if merr := ix.materializeDef(d); merr != nil {
				return merr
			}
		}
	}
	return nil
}

// ApplyDeletions removes from every definition's backing table the ASR
// rows embedding a deleted derivation: one scan per touched table, no
// join re-computation.
func (ix *Index) ApplyDeletions(report *exchange.MaintenanceReport) error {
	if len(ix.defs) == 0 || report == nil || len(report.DeletedDerivations) == 0 {
		return nil
	}
	ix.sys.DB.BeginBatch()
	defer ix.sys.DB.EndBatch()
	deleted := make(map[string]*deletedProv)
	for _, dd := range report.DeletedDerivations {
		set := deleted[dd.Mapping]
		if set == nil {
			set = &deletedProv{enc: make(map[string]bool), first: make(map[model.Datum]bool)}
			deleted[dd.Mapping] = set
		}
		set.enc[model.EncodeDatums(dd.Row)] = true
		if len(dd.Row) > 0 {
			set.first[dd.Row[0]] = true
		}
	}
	for _, d := range ix.defs {
		touched := false
		for _, m := range d.Chain {
			if deleted[m] != nil {
				touched = true
				break
			}
		}
		if !touched {
			continue
		}
		if err := ix.patchDefDelete(d, deleted); err != nil {
			// Same stale-index guard as the insertion path.
			if merr := ix.materializeDef(d); merr != nil {
				return merr
			}
		}
	}
	return nil
}

// sideProbe answers "which provenance rows of one chain position have
// these values in these columns". Materialized provenance relations
// are probed through a persistent relstore secondary index — created
// lazily on first use and thereafter maintained by the table's own
// insert/delete paths, mirroring the paper's B-Tree indexes on
// provenance keys — so a patch does no per-call hash builds. Virtual
// provenance relations have no table; their rows are hashed once per
// patch.
type sideProbe struct {
	table *relstore.Table
	cols  []int
	hash  map[string][]model.Tuple // fallback for virtual mappings
}

func (sp *sideProbe) candidates(vals []model.Datum) []model.Tuple {
	if sp.table != nil {
		return sp.table.Probe(sp.cols, vals)
	}
	return sp.hash[model.EncodeDatums(vals)]
}

// newSideProbe builds the probe for one chain position and column set.
func (ix *Index) newSideProbe(mapping string, cols []int) (*sideProbe, error) {
	if pr := ix.sys.Prov[mapping]; pr != nil && !pr.Virtual {
		if tbl, ok := ix.sys.DB.Table(pr.TableName); ok {
			tbl.EnsureIndex(cols)
			return &sideProbe{table: tbl, cols: cols}, nil
		}
	}
	rows, err := ix.sys.ProvRows(mapping)
	if err != nil {
		return nil, err
	}
	build := make(map[string][]model.Tuple, len(rows))
	for _, row := range rows {
		build[encodeAt(row, cols)] = append(build[encodeAt(row, cols)], row)
	}
	return &sideProbe{cols: cols, hash: build}, nil
}

// patchDefInsert delta-joins one definition's new provenance rows into
// its backing table.
func (ix *Index) patchDefInsert(d *Def, delta map[string][]model.Tuple) error {
	t, ok := ix.sys.DB.Table(d.Name)
	if !ok {
		// Defined but never materialized: nothing to patch, build fresh.
		return ix.materializeDef(d)
	}
	n := len(d.Chain)
	deltaRows := make([][]model.Tuple, n)
	deltaSet := make([]map[string]bool, n)
	for k, m := range d.Chain {
		deltaRows[k] = delta[m]
		if len(deltaRows[k]) == 0 {
			continue
		}
		set := make(map[string]bool, len(deltaRows[k]))
		for _, row := range deltaRows[k] {
			set[model.EncodeDatums(row)] = true
		}
		deltaSet[k] = set
	}
	// Lazily built probes per position: downProbe[k] answers leftward
	// extensions INTO position k (keyed on joins[k].downCols),
	// upProbe[k] rightward extensions INTO position k (keyed on
	// joins[k-1].upCols). Probes see the FULL (old ∪ new) rows;
	// leftward extensions must see only pre-insertion rows, so their
	// matches are filtered against the (small) per-position delta set.
	downProbe := make([]*sideProbe, n)
	upProbe := make([]*sideProbe, n)
	getDown := func(k int) (*sideProbe, error) {
		if downProbe[k] == nil {
			sp, err := ix.newSideProbe(d.Chain[k], d.joins[k].downCols)
			if err != nil {
				return nil, err
			}
			downProbe[k] = sp
		}
		return downProbe[k], nil
	}
	getUp := func(k int) (*sideProbe, error) {
		if upProbe[k] == nil {
			sp, err := ix.newSideProbe(d.Chain[k], d.joins[k-1].upCols)
			if err != nil {
				return nil, err
			}
			upProbe[k] = sp
		}
		return upProbe[k], nil
	}
	for _, sp := range d.spans {
		for m := sp.From; m <= sp.To; m++ {
			if len(deltaRows[m]) == 0 {
				continue
			}
			if err := emitDeltaSpan(d, t, sp, m, deltaRows[m], deltaSet, getDown, getUp); err != nil {
				return err
			}
		}
	}
	return nil
}

// datumsAt gathers a row's values at cols into buf.
func datumsAt(buf []model.Datum, row model.Tuple, cols []int) []model.Datum {
	buf = buf[:0]
	for _, c := range cols {
		buf = append(buf, row[c])
	}
	return buf
}

// emitDeltaSpan inserts the span's new rows for one delta position m:
// chains seeded by the new provenance rows at m, extended rightward
// through the full rows and leftward through the pre-insertion rows
// (full rows minus the delta set — filtered per matched candidate, so
// only join candidates are ever re-encoded).
func emitDeltaSpan(d *Def, t *relstore.Table, sp span, m int, seed []model.Tuple,
	deltaSet []map[string]bool, getDown, getUp func(int) (*sideProbe, error)) error {
	parts := make([][]model.Tuple, 0, len(seed))
	for _, row := range seed {
		parts = append(parts, []model.Tuple{row})
	}
	var vals []model.Datum
	// Rightward: parts cover positions m..k, p[len-1] at position k.
	for k := m; k < sp.To && len(parts) > 0; k++ {
		probe, err := getUp(k + 1)
		if err != nil {
			return err
		}
		var next [][]model.Tuple
		for _, p := range parts {
			vals = datumsAt(vals, p[len(p)-1], d.joins[k].downCols)
			for _, urow := range probe.candidates(vals) {
				np := make([]model.Tuple, len(p)+1)
				copy(np, p)
				np[len(p)] = urow
				next = append(next, np)
			}
		}
		parts = next
	}
	// Leftward: prepend positions m-1..From, p[0] at the leftmost.
	for k := m; k > sp.From && len(parts) > 0; k-- {
		probe, err := getDown(k - 1)
		if err != nil {
			return err
		}
		fresh := deltaSet[k-1]
		var next [][]model.Tuple
		for _, p := range parts {
			vals = datumsAt(vals, p[0], d.joins[k-1].upCols)
			for _, drow := range probe.candidates(vals) {
				if fresh != nil && fresh[model.EncodeDatums(drow)] {
					continue
				}
				np := make([]model.Tuple, len(p)+1)
				np[0] = drow
				copy(np[1:], p)
				next = append(next, np)
			}
		}
		parts = next
	}
	tag := sp.tag()
	for _, p := range parts {
		row := make(model.Tuple, len(d.columns))
		row[0] = tag
		for k := sp.From; k <= sp.To; k++ {
			prow := p[k-sp.From]
			for i, col := range d.colOf[k] {
				row[col] = prow[i]
			}
		}
		if _, err := t.Insert(row); err != nil {
			return err
		}
	}
	return nil
}

// deletedProv is one mapping's deleted provenance rows: the full-row
// encodings that identify them, plus the set of their first datums —
// a cheap prefilter, since fully encoding every span position of
// every ASR row would dominate the deletion patch on long chains.
type deletedProv struct {
	enc   map[string]bool
	first map[model.Datum]bool
}

// patchDefDelete scans one definition's backing table and removes the
// rows embedding any deleted derivation at any of their span's
// positions.
func (ix *Index) patchDefDelete(d *Def, deleted map[string]*deletedProv) error {
	t, ok := ix.sys.DB.Table(d.Name)
	if !ok {
		return ix.materializeDef(d)
	}
	spanOf := make(map[string]span, len(d.spans))
	for _, sp := range d.spans {
		spanOf[sp.tag()] = sp
	}
	t.DeleteWhere(func(row model.Tuple) bool {
		tag, _ := row[0].(string)
		sp, ok := spanOf[tag]
		if !ok {
			return false
		}
		for k := sp.From; k <= sp.To; k++ {
			set := deleted[d.Chain[k]]
			if set == nil {
				continue
			}
			cols := d.colOf[k]
			if len(cols) > 0 && !set.first[row[cols[0]]] {
				continue
			}
			if set.enc[encodeAt(row, cols)] {
				return true
			}
		}
		return false
	})
	return nil
}
