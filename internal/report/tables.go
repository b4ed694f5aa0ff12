package report

import (
	"fmt"
	"strings"

	"repro/internal/stats"
	"repro/internal/translation"
)

// Table is one rendered cross-run summary: labelled rows under named
// columns, renderable as GitHub markdown or CSV. Rows are emitted in
// the order they were added; builders add them in sorted-key order so
// rendering is byte-deterministic.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    []TableRow
	Notes   []string
}

// TableRow is one labelled row. Cells align with the table's Columns;
// a NaN-free fixed format keeps output stable across runs.
type TableRow struct {
	Label string
	Cells []float64
}

// Markdown renders the table as a GitHub-flavoured markdown table with
// a title heading.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s — %s\n\n", t.ID, t.Title)
	b.WriteString("| label |")
	for _, c := range t.Columns {
		fmt.Fprintf(&b, " %s |", c)
	}
	b.WriteString("\n|---|")
	for range t.Columns {
		b.WriteString("---:|")
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "| %s |", r.Label)
		for i := range t.Columns {
			if i < len(r.Cells) {
				fmt.Fprintf(&b, " %.4f |", r.Cells[i])
			} else {
				b.WriteString(" - |")
			}
		}
		b.WriteByte('\n')
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n> %s\n", n)
	}
	b.WriteByte('\n')
	return b.String()
}

// CSV renders the table as comma-separated values with a header row.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString("label")
	for _, c := range t.Columns {
		b.WriteByte(',')
		b.WriteString(c)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		b.WriteString(r.Label)
		for i := range t.Columns {
			b.WriteByte(',')
			if i < len(r.Cells) {
				fmt.Fprintf(&b, "%g", r.Cells[i])
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Tables builds every summary table the joined sweep supports. Tables
// whose inputs are entirely absent (no base/tempo pairs, no interval
// series) are omitted rather than rendered empty.
func Tables(d *Data) []*Table {
	var out []*Table
	if t := SpeedupTable(d); len(t.Rows) > 0 {
		out = append(out, t)
	}
	if t := MechTable(d); len(t.Rows) > 0 {
		out = append(out, t)
	}
	if t := CPITable(d); len(t.Rows) > 0 {
		out = append(out, t)
	}
	if t := RowBufferTable(d); len(t.Rows) > 0 {
		out = append(out, t)
	}
	if t := WalkLatencyTable(d); len(t.Rows) > 0 {
		out = append(out, t)
	}
	return out
}

// pairedResult returns the base and variant results for a workload
// under a key prefix pair, or ok=false if either is missing a result.
func pairedResult(d *Data, baseKey, varKey string) (base, variant *Run, ok bool) {
	base, variant = d.Get(baseKey), d.Get(varKey)
	if base == nil || variant == nil || base.Result == nil || variant.Result == nil {
		return nil, nil, false
	}
	return base, variant, true
}

// SpeedupTable pairs each workload's baseline run with its TEMPO run
// (and, when present, its IMP run with IMP+TEMPO) and reports the
// paper's headline metrics: runtime speedup (cycle ratio), weighted
// speedup (mean per-core IPC ratio — equal to the IPC ratio for
// single-core runs), both IPCs, and the energy ratio.
func SpeedupTable(d *Data) *Table {
	t := &Table{
		ID:      "speedup",
		Title:   "TEMPO speedup over baseline (Figure 10 regime)",
		Columns: []string{"speedup", "weighted_speedup", "base_ipc", "tempo_ipc", "energy_gain"},
	}
	addPair := func(label string, base, variant *Run) {
		b, v := base.Result, variant.Result
		if b.Total.Cycles == 0 || v.Total.Cycles == 0 {
			return
		}
		speedup := float64(b.Total.Cycles) / float64(v.Total.Cycles)
		ws := weightedSpeedup(b.Cores, v.Cores)
		energy := 0.0
		if ve := v.Energy.Total(); ve > 0 {
			energy = b.Energy.Total() / ve
		}
		t.Rows = append(t.Rows, TableRow{Label: label, Cells: []float64{
			speedup, ws, b.Total.IPC(), v.Total.IPC(), energy,
		}})
	}
	for _, key := range d.Keys() {
		if !strings.HasPrefix(key, "base/") {
			continue
		}
		wl := strings.TrimPrefix(key, "base/")
		if base, tempo, ok := pairedResult(d, key, "tempo/"+wl); ok {
			addPair(wl, base, tempo)
		}
	}
	for _, key := range d.Keys() {
		if !strings.HasPrefix(key, "imp/") {
			continue
		}
		wl := strings.TrimPrefix(key, "imp/")
		if base, it, ok := pairedResult(d, key, "imp+tempo/"+wl); ok {
			addPair(wl+"+imp", base, it)
		}
	}
	if len(t.Rows) > 0 {
		t.Notes = append(t.Notes,
			"speedup = base cycles / tempo cycles; weighted_speedup = mean per-core IPC ratio; energy_gain = base energy / tempo energy")
	}
	return t
}

// MechTable is the mechanism-zoo head-to-head (MECHANISMS.md): each
// "mech/<name>/<workload>" run paired against "base/<workload>",
// reporting speedup, IPC, energy, the walk-reference DRAM latency p50
// (how fast the translation path itself got) and the mechanism's
// engagement counter — proof the mechanism actually acted, since a
// rival that never engages shows a flat 1.0 speedup indistinguishable
// from a broken one. Only tempo rows are paper-comparable; see the
// "Mechanism zoo" section of paper_vs_measured.md.
func MechTable(d *Data) *Table {
	t := &Table{
		ID:      "mech",
		Title:   "Translation-mechanism head-to-head vs shared baseline",
		Columns: []string{"speedup", "weighted_speedup", "mech_ipc", "energy_gain", "ptw_dram_p50", "engaged"},
	}
	for _, key := range d.Keys() {
		if !strings.HasPrefix(key, "mech/") {
			continue
		}
		rest := strings.TrimPrefix(key, "mech/")
		name, wl, found := strings.Cut(rest, "/")
		if !found {
			continue
		}
		base, mechRun, ok := pairedResult(d, "base/"+wl, key)
		if !ok {
			continue
		}
		b, v := base.Result, mechRun.Result
		if b.Total.Cycles == 0 || v.Total.Cycles == 0 {
			continue
		}
		energy := 0.0
		if ve := v.Energy.Total(); ve > 0 {
			energy = b.Energy.Total() / ve
		}
		engaged := 0.0
		if c := translation.Engagement(name); c != "" {
			engaged = float64(v.MechCounters[c])
		}
		t.Rows = append(t.Rows, TableRow{Label: name + "/" + wl, Cells: []float64{
			float64(b.Total.Cycles) / float64(v.Total.Cycles),
			weightedSpeedup(b.Cores, v.Cores),
			v.Total.IPC(),
			energy,
			float64(v.Total.DRAMLatencyPercentile(stats.DRAMPTW, 0.50)),
			engaged,
		}})
	}
	if len(t.Rows) > 0 {
		t.Notes = append(t.Notes,
			"engaged = the mechanism's engagement counter (tempo: prefetches, victima: pte_hits, revelator: spec_hits); ptw_dram_p50 = median DRAM latency of page-walk references")
	}
	return t
}

// weightedSpeedup is the mean over cores of the variant/base IPC
// ratio. Core counts can differ across sweeps only through config
// drift; pair what aligns and ignore the rest.
func weightedSpeedup(base, variant []stats.Stats) float64 {
	n := len(base)
	if len(variant) < n {
		n = len(variant)
	}
	var sum float64
	var counted int
	for i := 0; i < n; i++ {
		bi, vi := base[i].IPC(), variant[i].IPC()
		if bi > 0 {
			sum += vi / bi
			counted++
		}
	}
	if counted == 0 {
		return 0
	}
	return sum / float64(counted)
}

// RowBufferTable reports each run's DRAM row-buffer hit rate, overall
// and for the prefetch category — the mechanism behind TEMPO's DRAM
// latency win (prefetches open the PT row's neighbourhood, so replays
// hit open rows).
func RowBufferTable(d *Data) *Table {
	t := &Table{
		ID:      "rowbuffer",
		Title:   "DRAM row-buffer hit rate by run",
		Columns: []string{"hit_rate", "ptw_hit_rate", "replay_hit_rate", "prefetch_hit_rate"},
	}
	for _, key := range d.Keys() {
		r := d.Get(key)
		if r.Result == nil {
			continue
		}
		m := &r.Result.Mem
		overall := rowHitRate(m, -1)
		t.Rows = append(t.Rows, TableRow{Label: key, Cells: []float64{
			overall,
			rowHitRate(m, int(stats.DRAMPTW)),
			rowHitRate(m, int(stats.DRAMReplay)),
			rowHitRate(m, int(stats.DRAMPrefetch)),
		}})
	}
	return t
}

// rowHitRate computes row-buffer hits / accesses for one DRAM category
// (-1 for all categories combined); 0 when the category saw no
// traffic.
func rowHitRate(m *stats.Stats, cat int) float64 {
	var hits, total uint64
	for c := range m.DRAMOutcomes {
		if cat >= 0 && c != cat {
			continue
		}
		for o, n := range m.DRAMOutcomes[c] {
			total += n
			if o == int(stats.RowHit) {
				hits += n
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// WalkLatencyTable reports page-walk latency quantiles per run from
// the interval-stats series (summing every core's walk-latency
// histogram). Only runs that executed with -stats-interval have a
// series; cache hits are skipped.
func WalkLatencyTable(d *Data) *Table {
	t := &Table{
		ID:      "walklat",
		Title:   "Page-walk latency quantiles (cycles, power-of-two bucket upper bounds)",
		Columns: []string{"p50", "p95", "p99", "walks"},
	}
	for _, key := range d.Keys() {
		r := d.Get(key)
		if r.Series == nil {
			continue
		}
		h, ok := r.Series.SumHists("/walk/latency")
		if !ok || h.Count == 0 {
			continue
		}
		t.Rows = append(t.Rows, TableRow{Label: key, Cells: []float64{
			float64(h.Quantile(0.50)),
			float64(h.Quantile(0.95)),
			float64(h.Quantile(0.99)),
			float64(h.Count),
		}})
	}
	if len(t.Rows) > 0 {
		t.Notes = append(t.Notes,
			"quantiles are inclusive upper bounds of power-of-two buckets reconstructed from the interval series")
	}
	return t
}
