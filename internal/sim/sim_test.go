package sim

import (
	"math"
	"strings"
	"testing"

	"repro/internal/stats"
	"repro/internal/vm"
)

// quickCfg returns a fast single-core configuration.
func quickCfg(wl string, records int) Config {
	cfg := DefaultConfig(wl)
	cfg.Records = records
	// Shrink footprints so tests run in milliseconds while keeping
	// footprint >> TLB reach and LLC.
	cfg.Workloads[0].Footprint = 256 << 20
	return cfg
}

func run(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunBasicInvariants(t *testing.T) {
	cfg := quickCfg("xsbench", 20_000)
	res := run(t, cfg)
	st := &res.Total
	if st.MemRefs != 20_000 {
		t.Errorf("MemRefs = %d", st.MemRefs)
	}
	if st.Cycles == 0 || st.Instructions == 0 {
		t.Error("no cycles/instructions recorded")
	}
	if st.TLBMisses == 0 {
		t.Error("xsbench must thrash the TLB")
	}
	if st.DRAMRefs[stats.DRAMPTW] == 0 || st.DRAMRefs[stats.DRAMOther] == 0 {
		t.Errorf("DRAM categories empty: %v", st.DRAMRefs)
	}
	// Runtime attribution must not exceed total runtime.
	attr := st.PTWDRAMCycles + st.ReplayDRAMCycles + st.OtherDRAMCycles
	if attr > st.Cycles {
		t.Errorf("attributed %d > total %d cycles", attr, st.Cycles)
	}
	// Baseline run must not touch TEMPO counters.
	if st.TempoPrefetches != 0 || st.TempoLLCFills != 0 {
		t.Error("TEMPO counters nonzero in baseline run")
	}
	if res.Energy.Total() <= 0 {
		t.Error("energy must be positive")
	}
}

func TestLeafPTWDominatesAndReplaysFollow(t *testing.T) {
	res := run(t, quickCfg("xsbench", 30_000))
	st := &res.Total
	// Paper: 96%+ of DRAM PTW refs are leaf-level; 98%+ of DRAM leaf
	// walks are followed by DRAM replays. Allow slack at test scale.
	if f := st.LeafPTWFraction(); f < 0.90 {
		t.Errorf("leaf PTW fraction = %.3f, want >= 0.90", f)
	}
	if f := st.ReplayAfterPTWFraction(); f < 0.90 {
		t.Errorf("replay-after-PTW fraction = %.3f, want >= 0.90", f)
	}
}

func TestTempoImprovesBigWorkload(t *testing.T) {
	base := run(t, quickCfg("xsbench", 30_000))
	cfgT := quickCfg("xsbench", 30_000)
	cfgT.Tempo = DefaultTempo()
	tempo := run(t, cfgT)

	if tempo.Mem.TempoPrefetches == 0 {
		t.Fatal("TEMPO never prefetched")
	}
	if tempo.Total.Cycles >= base.Total.Cycles {
		t.Errorf("TEMPO run slower: %d vs %d cycles", tempo.Total.Cycles, base.Total.Cycles)
	}
	imp := 1 - float64(tempo.Total.Cycles)/float64(base.Total.Cycles)
	if imp < 0.03 {
		t.Errorf("TEMPO improvement only %.1f%%", imp*100)
	}
	// Replays should now be served mostly by the LLC or row buffer.
	llc := tempo.Total.ReplayServiceFraction(stats.ReplayLLC)
	rb := tempo.Total.ReplayServiceFraction(stats.ReplayRowBuffer)
	if llc+rb < 0.7 {
		t.Errorf("TEMPO rescued only %.2f of replays (LLC %.2f, RB %.2f)", llc+rb, llc, rb)
	}
	if tempo.Mem.TempoLLCFills == 0 || tempo.Total.TempoUseful == 0 {
		t.Error("LLC fills / usefulness not recorded")
	}
}

func TestTempoRowBufferOnlyAblation(t *testing.T) {
	cfg := quickCfg("xsbench", 20_000)
	cfg.Tempo = DefaultTempo()
	cfg.Tempo.LLCPrefetch = false
	res := run(t, cfg)
	if res.Mem.TempoLLCFills != 0 {
		t.Error("row-buffer-only ablation must not fill the LLC")
	}
	if f := res.Total.ReplayServiceFraction(stats.ReplayRowBuffer); f < 0.5 {
		t.Errorf("row-buffer service fraction = %.2f, want most replays", f)
	}
}

func TestSmallWorkloadUnharmed(t *testing.T) {
	base := run(t, quickCfg("blackscholes.small", 20_000))
	cfgT := quickCfg("blackscholes.small", 20_000)
	cfgT.Tempo = DefaultTempo()
	tempo := run(t, cfgT)
	// TEMPO must not slow small-footprint workloads (paper: +1-2%).
	ratio := float64(tempo.Total.Cycles) / float64(base.Total.Cycles)
	if ratio > 1.01 {
		t.Errorf("TEMPO slowed a small workload by %.1f%%", (ratio-1)*100)
	}
}

func TestDeterministicRuns(t *testing.T) {
	a := run(t, quickCfg("graph500", 5_000))
	b := run(t, quickCfg("graph500", 5_000))
	if a.Total.Cycles != b.Total.Cycles || a.Total.DRAMRefs != b.Total.DRAMRefs {
		t.Errorf("identical configs diverged: %d vs %d cycles", a.Total.Cycles, b.Total.Cycles)
	}
	cfgT := quickCfg("graph500", 5_000)
	cfgT.Tempo = DefaultTempo()
	c := run(t, cfgT)
	d := run(t, cfgT)
	if c.Total.Cycles != d.Total.Cycles {
		t.Error("TEMPO runs nondeterministic")
	}
}

func TestMultiCoreSharedMemory(t *testing.T) {
	cfg := quickCfg("graph500", 4_000)
	cfg.Workloads = []WorkloadSpec{
		{Name: "graph500", Footprint: 128 << 20},
		{Name: "xsbench", Footprint: 128 << 20},
		{Name: "mcf", Footprint: 128 << 20},
		{Name: "canneal", Footprint: 128 << 20},
	}
	res := run(t, cfg)
	if len(res.Cores) != 4 {
		t.Fatalf("cores = %d", len(res.Cores))
	}
	for i, c := range res.Cores {
		if c.MemRefs != 4_000 {
			t.Errorf("core %d refs = %d", i, c.MemRefs)
		}
		if c.Cycles == 0 {
			t.Errorf("core %d never ran", i)
		}
	}
	// Total cycles is the slowest core.
	var maxC uint64
	for _, c := range res.Cores {
		if c.Cycles > maxC {
			maxC = c.Cycles
		}
	}
	if res.Total.Cycles != maxC {
		t.Errorf("Total.Cycles = %d, want max %d", res.Total.Cycles, maxC)
	}
}

func TestMultiCoreContentionSlowsCores(t *testing.T) {
	alone := run(t, quickCfg("xsbench", 6_000))
	cfg := quickCfg("xsbench", 6_000)
	cfg.Workloads = []WorkloadSpec{
		{Name: "xsbench", Footprint: 256 << 20},
		{Name: "xsbench", Footprint: 256 << 20, Seed: 99},
		{Name: "xsbench", Footprint: 256 << 20, Seed: 98},
		{Name: "xsbench", Footprint: 256 << 20, Seed: 97},
	}
	shared := run(t, cfg)
	if shared.Cores[0].Cycles <= alone.Cores[0].Cycles {
		t.Errorf("no contention: shared %d <= alone %d cycles",
			shared.Cores[0].Cycles, alone.Cores[0].Cycles)
	}
}

func TestBLISSSchedulerRuns(t *testing.T) {
	cfg := quickCfg("xsbench", 5_000)
	cfg.Workloads = []WorkloadSpec{
		{Name: "xsbench", Footprint: 128 << 20},
		{Name: "gcc.small"},
	}
	cfg.Scheduler = SchedBLISS
	cfg.Tempo = DefaultTempo()
	res := run(t, cfg)
	if res.Total.Cycles == 0 || res.Mem.TempoPrefetches == 0 {
		t.Error("BLISS+TEMPO run produced no activity")
	}
}

func TestSubRowConfigurations(t *testing.T) {
	for _, pol := range []SubRowPolicyKind{SubRowShared, SubRowFOA, SubRowPOA} {
		cfg := quickCfg("xsbench", 4_000)
		cfg.Workloads = append(cfg.Workloads, WorkloadSpec{Name: "mcf", Footprint: 128 << 20})
		cfg.SubRows = 8
		cfg.PrefetchSubRows = 2
		cfg.SubRowPolicy = pol
		cfg.Tempo = DefaultTempo()
		res := run(t, cfg)
		if res.Total.Cycles == 0 {
			t.Errorf("policy %d produced no run", pol)
		}
	}
}

func TestIMPGeneratesWalksAndPrefetches(t *testing.T) {
	cfg := quickCfg("spmv", 20_000)
	cfg.IMP = true
	res := run(t, cfg)
	if res.Total.IMPPrefetches == 0 {
		t.Fatal("IMP never prefetched on spmv")
	}
	if res.Total.IMPUseful == 0 {
		t.Error("IMP prefetches never useful on spmv")
	}
	if res.Mem.DRAMRefs[stats.DRAMPrefetch] == 0 {
		t.Error("IMP prefetch DRAM traffic missing")
	}
}

func TestRowPoliciesAllWork(t *testing.T) {
	for _, pol := range []struct {
		name string
		set  func(*Config)
	}{
		{"adaptive", func(c *Config) {}},
		{"open", func(c *Config) { c.Machine.DRAM.Policy = 1 }},
		{"closed", func(c *Config) { c.Machine.DRAM.Policy = 2 }},
	} {
		cfg := quickCfg("mcf", 5_000)
		pol.set(&cfg)
		base := run(t, cfg)
		cfgT := cfg
		cfgT.Tempo = DefaultTempo()
		tempo := run(t, cfgT)
		if tempo.Total.Cycles > base.Total.Cycles {
			t.Errorf("%s: TEMPO slower (%d vs %d)", pol.name, tempo.Total.Cycles, base.Total.Cycles)
		}
	}
}

func TestPageModesRun(t *testing.T) {
	for _, mode := range []vm.PageMode{vm.Mode4KOnly, vm.ModeTHP, vm.ModeHugetlbfs2M} {
		cfg := quickCfg("graph500", 5_000)
		cfg.OS.Mode = mode
		res := run(t, cfg)
		switch mode {
		case vm.Mode4KOnly:
			if res.Superpage[0] != 0 {
				t.Error("4K-only run has superpages")
			}
		case vm.ModeHugetlbfs2M:
			if res.Superpage[0] < 0.5 {
				t.Errorf("hugetlbfs coverage = %.2f", res.Superpage[0])
			}
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("empty config should fail")
	}
	cfg := DefaultConfig("xsbench")
	cfg.Records = 0
	if _, err := Run(cfg); err == nil {
		t.Error("zero records should fail")
	}
	cfg = DefaultConfig("nosuchworkload")
	cfg.Records = 10
	if _, err := Run(cfg); err == nil {
		t.Error("unknown workload should fail")
	}
}

// TestMachineValidation feeds New the machine parameters the simulator
// cannot run with: a NonMemIPC below 1 divides every record's
// instruction gap by zero (or wraps it), an OtherOverlap outside [0, 1]
// wraps the stall charge into a near-endless run, and a cache, TLB or
// DRAM geometry its package cannot build panics at construction. New
// must reject each with an error naming the field, so Run is never
// reached.
func TestMachineValidation(t *testing.T) {
	cases := []struct {
		name  string
		field string
		edit  func(*Machine)
	}{
		{"ipc-zero", "NonMemIPC", func(m *Machine) { m.NonMemIPC = 0 }},
		{"ipc-negative", "NonMemIPC", func(m *Machine) { m.NonMemIPC = -2 }},
		{"overlap-negative", "OtherOverlap", func(m *Machine) { m.OtherOverlap = -3 }},
		{"overlap-above-one", "OtherOverlap", func(m *Machine) { m.OtherOverlap = 1.5 }},
		{"overlap-nan", "OtherOverlap", func(m *Machine) { m.OtherOverlap = math.NaN() }},
		{"llc-zero-ways", "Caches.LLC.Ways", func(m *Machine) { m.Caches.LLC.Ways = 0 }},
		{"llc-odd-size", "Caches.LLC.SizeB", func(m *Machine) { m.Caches.LLC.SizeB = 3000 }},
		{"l1-three-ways", "Caches.L1.Ways", func(m *Machine) { m.Caches.L1.Ways = 3 }},
		{"tlb-zero-ways", "TLB.L1[0].Ways", func(m *Machine) { m.TLB.L1[0].Ways = 0 }},
		{"tlb-three-sets", "TLB.L1[0].Sets", func(m *Machine) { m.TLB.L1[0].Sets = 3 }},
		{"dram-no-channels", "DRAM.Geometry.Channels", func(m *Machine) { m.DRAM.Geometry.Channels = 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := quickCfg("xsbench", 1_000)
			tc.edit(&cfg.Machine)
			s, err := New(cfg)
			if err == nil || s != nil {
				t.Fatalf("New accepted %s (system %v, err %v)", tc.name, s, err)
			}
			if !strings.Contains(err.Error(), "Machine."+tc.field) {
				t.Errorf("error %q does not name Machine.%s", err, tc.field)
			}
		})
	}
	// The bounds themselves are valid.
	cfg := quickCfg("xsbench", 1_000)
	cfg.Machine.NonMemIPC = 1
	for _, v := range []float64{0, 1} {
		cfg.Machine.OtherOverlap = v
		if _, err := New(cfg); err != nil {
			t.Errorf("OtherOverlap=%v rejected: %v", v, err)
		}
	}
}
