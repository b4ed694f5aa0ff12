package stats

import (
	"math"
	"testing"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestStringers(t *testing.T) {
	if DRAMPTW.String() != "DRAM-PTW-Access" ||
		DRAMReplay.String() != "DRAM-Replay-Access" ||
		DRAMOther.String() != "DRAM-Other" ||
		DRAMPrefetch.String() != "DRAM-Prefetch" {
		t.Error("DRAMCategory strings wrong")
	}
	if RowHit.String() != "row-hit" || RowMiss.String() != "row-miss" ||
		RowConflict.String() != "row-conflict" {
		t.Error("RowOutcome strings wrong")
	}
	if ReplayLLC.String() != "LLC" || ReplayRowBuffer.String() != "row-buffer" ||
		ReplayDRAMArray.String() != "DRAM-array" {
		t.Error("ReplayService strings wrong")
	}
	if DRAMCategory(99).String() == "" || RowOutcome(99).String() == "" ||
		ReplayService(99).String() == "" {
		t.Error("unknown values should still stringify")
	}
}

func TestAddDRAMRefAndFractions(t *testing.T) {
	var s Stats
	for i := 0; i < 20; i++ {
		s.AddDRAMRef(DRAMPTW, RowConflict)
	}
	for i := 0; i < 30; i++ {
		s.AddDRAMRef(DRAMReplay, RowMiss)
	}
	for i := 0; i < 50; i++ {
		s.AddDRAMRef(DRAMOther, RowHit)
	}
	for i := 0; i < 10; i++ {
		s.AddDRAMRef(DRAMPrefetch, RowMiss)
	}
	if got := s.TotalDRAMRefs(false); got != 100 {
		t.Errorf("TotalDRAMRefs(false) = %d", got)
	}
	if got := s.TotalDRAMRefs(true); got != 110 {
		t.Errorf("TotalDRAMRefs(true) = %d", got)
	}
	if !almost(s.DRAMRefFraction(DRAMPTW), 0.2) {
		t.Errorf("PTW fraction = %v", s.DRAMRefFraction(DRAMPTW))
	}
	if !almost(s.DRAMRefFraction(DRAMReplay), 0.3) {
		t.Errorf("replay fraction = %v", s.DRAMRefFraction(DRAMReplay))
	}
	if s.DRAMOutcomes[DRAMPTW][RowConflict] != 20 {
		t.Error("outcome matrix not updated")
	}
}

func TestFractionsEmptyStatsAreZero(t *testing.T) {
	var s Stats
	if s.DRAMRefFraction(DRAMPTW) != 0 || s.RuntimeFraction(DRAMPTW) != 0 ||
		s.LeafPTWFraction() != 0 || s.ReplayAfterPTWFraction() != 0 ||
		s.ReplayServiceFraction(ReplayLLC) != 0 || s.IPC() != 0 ||
		s.TLBMissRate() != 0 || s.SuperpageFraction(1) != 0 {
		t.Error("empty stats must yield zero fractions, not NaN")
	}
}

func TestRuntimeFraction(t *testing.T) {
	s := Stats{Cycles: 1000, PTWDRAMCycles: 250, ReplayDRAMCycles: 150, OtherDRAMCycles: 100}
	if !almost(s.RuntimeFraction(DRAMPTW), 0.25) {
		t.Error("PTW runtime fraction")
	}
	if !almost(s.RuntimeFraction(DRAMReplay), 0.15) {
		t.Error("replay runtime fraction")
	}
	if !almost(s.RuntimeFraction(DRAMOther), 0.10) {
		t.Error("other runtime fraction")
	}
	if s.RuntimeFraction(DRAMPrefetch) != 0 {
		t.Error("prefetch has no runtime attribution")
	}
}

// TestRuntimeFractionMultiCore merges four per-core results the way a
// multi-core run's Total is built: Cycles becomes the slowest core's
// runtime while the DRAM stall cycles sum, so only the summed
// CPICycles keeps the fractions a share of runtime.
func TestRuntimeFractionMultiCore(t *testing.T) {
	var total Stats
	for i := uint64(0); i < 4; i++ {
		cycles := 1000 + 100*i
		core := Stats{Cycles: cycles, CPICycles: cycles,
			PTWDRAMCycles: cycles / 4, ReplayDRAMCycles: cycles / 5, OtherDRAMCycles: cycles / 3}
		total.Add(&core)
	}
	sum := total.RuntimeFraction(DRAMPTW) + total.RuntimeFraction(DRAMReplay) +
		total.RuntimeFraction(DRAMOther)
	if sum > 1 {
		t.Errorf("merged runtime fractions sum to %.3f, want <= 1", sum)
	}
	if want := float64(total.PTWDRAMCycles) / 4600; !almost(total.RuntimeFraction(DRAMPTW), want) {
		t.Errorf("PTW fraction %.4f, want %.4f (over summed per-core cycles)",
			total.RuntimeFraction(DRAMPTW), want)
	}
}

func TestLeafAndReplayFractions(t *testing.T) {
	var s Stats
	s.DRAMRefs[DRAMPTW] = 100
	s.DRAMPTWLeaf = 96
	if !almost(s.LeafPTWFraction(), 0.96) {
		t.Error("leaf fraction")
	}
	s.WalkDRAMTouched = 50
	s.WalkDRAMThenReplayDRAM = 49
	if !almost(s.ReplayAfterPTWFraction(), 0.98) {
		t.Error("replay-after-PTW fraction")
	}
}

func TestReplayServiceFraction(t *testing.T) {
	var s Stats
	s.ReplayServiced[ReplayLLC] = 75
	s.ReplayServiced[ReplayRowBuffer] = 20
	s.ReplayServiced[ReplayDRAMArray] = 5
	if !almost(s.ReplayServiceFraction(ReplayLLC), 0.75) {
		t.Error("LLC service fraction")
	}
	if !almost(s.ReplayServiceFraction(ReplayDRAMArray), 0.05) {
		t.Error("array service fraction")
	}
}

func TestIPCAndTLBMissRate(t *testing.T) {
	s := Stats{Cycles: 500, Instructions: 1000, TLBHits: 90, TLBMisses: 10}
	if !almost(s.IPC(), 2.0) {
		t.Error("IPC")
	}
	if !almost(s.TLBMissRate(), 0.1) {
		t.Error("TLB miss rate")
	}
}

func TestSuperpageFraction(t *testing.T) {
	var s Stats
	s.FootprintBytes[0] = 1 << 30 // 4KB-backed bytes
	s.FootprintBytes[1] = 3 << 30 // 2MB-backed
	if !almost(s.SuperpageFraction(1), 0.75) {
		t.Error("2MB fraction")
	}
	s.FootprintBytes[2] = 4 << 30 // 1GB-backed
	if !almost(s.SuperpageFraction(1, 2), 7.0/8.0) {
		t.Error("combined superpage fraction")
	}
}

func TestAddMerges(t *testing.T) {
	a := Stats{Cycles: 100, Instructions: 10, TLBMisses: 1}
	a.DRAMRefs[DRAMPTW] = 5
	a.DRAMOutcomes[DRAMPTW][RowHit] = 5
	b := Stats{Cycles: 200, Instructions: 20, TLBMisses: 2}
	b.DRAMRefs[DRAMPTW] = 7
	b.ReplayServiced[ReplayLLC] = 3
	a.Add(&b)
	if a.Cycles != 200 { // max: cores run concurrently
		t.Errorf("Cycles = %d, want max 200", a.Cycles)
	}
	if a.Instructions != 30 || a.TLBMisses != 3 || a.DRAMRefs[DRAMPTW] != 12 {
		t.Error("additive fields wrong")
	}
	if a.DRAMOutcomes[DRAMPTW][RowHit] != 5 || a.ReplayServiced[ReplayLLC] != 3 {
		t.Error("matrix fields wrong")
	}
}

func TestLatencyHistogram(t *testing.T) {
	var s Stats
	// 90 fast (bucket for 64..127) and 10 slow (1024..2047) services.
	for i := 0; i < 90; i++ {
		s.AddDRAMLatency(DRAMOther, 100)
	}
	for i := 0; i < 10; i++ {
		s.AddDRAMLatency(DRAMOther, 1500)
	}
	if p := s.DRAMLatencyPercentile(DRAMOther, 0.50); p != 128 {
		t.Errorf("p50 = %d, want 128", p)
	}
	if p := s.DRAMLatencyPercentile(DRAMOther, 0.99); p != 2048 {
		t.Errorf("p99 = %d, want 2048", p)
	}
	if s.DRAMLatencyPercentile(DRAMPTW, 0.5) != 0 {
		t.Error("empty category must report 0")
	}
	// Extremes clamp instead of overflowing.
	s.AddDRAMLatency(DRAMReplay, 0)
	s.AddDRAMLatency(DRAMReplay, 1<<40)
	if s.DRAMLatency[DRAMReplay][0] != 1 || s.DRAMLatency[DRAMReplay][LatBuckets-1] != 1 {
		t.Error("clamping wrong")
	}
	// Add merges histograms.
	var o Stats
	o.AddDRAMLatency(DRAMOther, 100)
	s.Add(&o)
	if s.DRAMLatency[DRAMOther][6] != 91 {
		t.Errorf("merge failed: %d", s.DRAMLatency[DRAMOther][6])
	}
}
