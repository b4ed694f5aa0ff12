package sim

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/obsv"
	"repro/internal/vm"
)

// TestRandomMultiCoreDeterministic runs randomized multi-core
// configurations twice each: the coordinator's interleaving must be a
// pure function of the config, so the two results are deep-equal, and
// every result must pass the counter-conservation audit. The golden
// fixtures pin a handful of shapes; this extends determinism and the
// audit laws to random mixes of workloads, paging, schedulers, TEMPO,
// IMP and sub-row policies.
func TestRandomMultiCoreDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	n := 12
	if testing.Short() {
		n = 4
	}
	for i := 0; i < n; i++ {
		cfg := randomConfig(rng)
		for len(cfg.Workloads) < 2 {
			spec := cfg.Workloads[0]
			spec.Seed = int64(len(cfg.Workloads) + 1)
			cfg.Workloads = append(cfg.Workloads, spec)
		}
		ref, err := Run(cfg)
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("config %d rerun: %v", i, err)
		}
		if !reflect.DeepEqual(res, ref) {
			t.Errorf("config %d (%+v): rerun diverged (cycles %d vs %d, DRAM refs %d vs %d)",
				i, cfg.Workloads, res.Total.Cycles, ref.Total.Cycles,
				res.Total.DRAMRefs, ref.Total.DRAMRefs)
		}
		if v := obsv.Audit(obsv.StatsSnapshot(&ref.Total)); len(v) > 0 {
			t.Errorf("config %d (%+v): audit violations: %v", i, cfg.Workloads, v)
		}
	}
}

// localCfg builds a multi-core run that keeps several cores awake at
// once: blackscholes.small alternates L1/L2 streaks with DRAM misses,
// so the cores' clocks stay close and the coordinator interleaves
// them finely instead of running whole-trace sprints.
func localCfg(cores int) Config {
	cfg := DefaultConfig("blackscholes.small")
	cfg.Records = 100_000
	cfg.Seed = 7
	cfg.OS.Mode = vm.ModeTHP
	cfg.Workloads = nil
	for i := 0; i < cores; i++ {
		cfg.Workloads = append(cfg.Workloads, WorkloadSpec{
			Name: "blackscholes.small", Footprint: 4 << 20, Seed: int64(i + 1),
		})
	}
	return cfg
}
