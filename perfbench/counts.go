package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/experiments"
	"repro/internal/mem"
	"repro/internal/obsv"
	"repro/internal/sim"
	"repro/internal/stats"
)

// simCounts derives the simulated per-layer counts from merged stats.
// Every per-record or per-cycle quantity divides by sums over cores:
// records by MemRefs, cycles by CPICycles. Total.Cycles is the slowest
// core's runtime (Stats.Add maxes it), so a fraction over it would
// exceed 1 on multi-core runs; a fraction outside [0, 1] is reported as
// a failure.
func simCounts(out *outcome, t *stats.Stats) {
	m := out.metrics
	m["tlb.miss_rate"] = t.TLBMissRate()
	m["tlb.mmu_hit_rate"] = ratio(t.MMUCacheHits, t.MMUCacheHits+t.MMUCacheMisses)
	m["ptwalk.walks_per_kref"] = 1000 * ratio(t.WalksStarted, t.MemRefs)
	// The leaf level's share of the walker's DRAM references (fig04's
	// "leaf share of DRAM PTW refs"): how much of the walk traffic that
	// reaches DRAM is a potential TEMPO trigger.
	m["ptwalk.leaf_dram_frac"] = t.LeafPTWFraction()
	m["cache.l1_hit_rate"] = ratio(t.L1Hits, t.L1Hits+t.L1Misses)
	m["cache.llc_hit_rate"] = ratio(t.LLCHits, t.LLCHits+t.LLCMisses)
	var refs, rowHits uint64
	for c := range t.DRAMRefs {
		refs += t.DRAMRefs[c]
		rowHits += t.DRAMOutcomes[c][stats.RowHit]
	}
	m["dram.refs_per_kref"] = 1000 * ratio(refs, t.MemRefs)
	m["dram.row_hit_rate"] = ratio(rowHits, refs)
	m["dram.writeback_frac"] = ratio(t.DRAMRefs[stats.DRAMWriteback], refs)
	m["core.tempo_useful_frac"] = ratio(t.TempoUseful, t.TempoPrefetches)
	m["core.replay_llc_frac"] = t.ReplayServiceFraction(stats.ReplayLLC)
	m["sim.ipc"] = t.IPC()
	m["sim.dram_stall_frac"] = ratio(t.PTWDRAMCycles+t.ReplayDRAMCycles+t.OtherDRAMCycles, t.CPICycles)
	for b := stats.CPIBucket(0); b < stats.NumCPIBuckets; b++ {
		m[cpiMetric(b)] = ratio(t.CPIStack[b], t.MemRefs)
	}
	for _, pm := range perLayer {
		if v, ok := m[pm.name]; ok && pm.unit == "frac" && (v < 0 || v > 1) {
			out.fail("simulated fraction %s = %g outside [0, 1]", pm.name, v)
		}
	}
}

// layerCalls is how often the simulator calls each replayed layer per
// trace record, keyed like replayLayers. faults is the number of
// demand-paging Touch calls (the hot path touches only on a fault).
func layerCalls(t *stats.Stats, faults uint64) map[string]float64 {
	var refs uint64
	for c := range t.DRAMRefs {
		refs += t.DRAMRefs[c]
	}
	return map[string]float64{
		"workload": 1,
		"vm":       ratio(faults, t.MemRefs),
		"tlb":      ratio(t.TLBHits+t.TLBMisses, t.MemRefs),
		"ptwalk":   ratio(t.WalksStarted, t.MemRefs),
		"cache":    ratio(t.L1Hits+t.L1Misses, t.MemRefs),
		"cache-pf": ratio(t.TempoLLCFills, t.MemRefs),
		"dram":     ratio(refs, t.MemRefs),
		"core":     ratio(t.TempoTriggers, t.MemRefs),
	}
}

// pageFaults counts the pages a run mapped: one demand fault each. A
// shared address space reports the same footprint on every core, so it
// is counted once.
func pageFaults(res *sim.Result, shared bool) uint64 {
	var n uint64
	for i := range res.Cores {
		if shared && i > 0 {
			break
		}
		for c, b := range res.Cores[i].FootprintBytes {
			n += b / mem.PageSizeClass(c).Bytes()
		}
	}
	return n
}

// runBands counts the paper bands one run's own counters fall inside.
// Only bands stated as a minimum over workloads bound every workload,
// so only those apply to a single run; the replay-from-LLC band
// describes TEMPO and applies only when it is on. The bands themselves
// come from experiments.PaperPoints, so they cannot drift from the
// ones quick-sweep checks.
func runBands(res *sim.Result) (in, of int, err error) {
	t := &res.Total
	var coverage float64
	for _, f := range res.Superpage {
		coverage += f / float64(len(res.Superpage))
	}
	measured := map[string]float64{
		"fig04/leaf share of DRAM PTW refs (min)":         t.LeafPTWFraction(),
		"fig04/DRAM walks followed by DRAM replays (min)": t.ReplayAfterPTWFraction(),
		"fig10/THP superpage coverage (min)":              coverage,
	}
	if res.TempoOn {
		measured["fig11/replays served from the LLC (min big-data)"] = t.ReplayServiceFraction(stats.ReplayLLC)
	}
	for _, p := range experiments.PaperPoints() {
		v, ok := measured[p.Figure+"/"+p.Metric]
		if !ok {
			continue
		}
		of++
		if v >= p.PaperLo && v <= p.PaperHi {
			in++
		}
	}
	if of != len(measured) {
		return 0, 0, fmt.Errorf("paper bands: found %d of the %d per-run bands in experiments.PaperPoints", of, len(measured))
	}
	return in, of, nil
}

// comparePaperBands counts the "yes" rows of ComparePaper's table.
func comparePaperBands(table string) int {
	n := 0
	for _, line := range strings.Split(table, "\n") {
		if strings.HasPrefix(line, "| fig") && strings.HasSuffix(strings.TrimSpace(line), "| yes |") {
			n++
		}
	}
	return n
}

// digest is a content hash of a result: runs of one configuration must
// produce the same digest whatever the host speed or worker count.
func digest(res *sim.Result) (string, error) {
	b, err := json.Marshal(res)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8]), nil
}

// auditErr reports the result's counter-conservation violations, if
// any, as one error. It applies the laws the way tempo-report audit
// does: tempo.Audit's laws over the totals with the run's mechanism
// counters merged in (a rival mechanism's speculative prefetches are
// only visible there), plus each core's CPI stack summing to its cycles.
func auditErr(res *sim.Result) error {
	snap := obsv.StatsSnapshot(&res.Total)
	for name, v := range res.MechCounters {
		snap.Counters[name] = v
	}
	v := obsv.Audit(snap)
	for i := range res.Cores {
		c := &res.Cores[i]
		if attr := c.CPIAttributed(); attr != c.CPICycles {
			v = append(v, obsv.AuditViolation{Check: "cpi-stack-sums-to-cycles",
				Detail: fmt.Sprintf("core %d: %d attributed cycles != %d core cycles", i, attr, c.CPICycles)})
		}
	}
	if len(v) == 0 {
		return nil
	}
	return fmt.Errorf("audit: %d violations, first: %s: %s", len(v), v[0].Check, v[0].Detail)
}
