package sim

// Benchmark compatibility shim. The simulator has one serial
// coordinator; these names exist only so the benchmark harness under
// perfbench/ keeps building unchanged, and the next change to the
// benchmark deletes them together with Config.Workers and
// runner.JobResult.Parallel. They add no option and report nothing.

// ParallelStats is always the zero value.
type ParallelStats struct {
	EpochRecords uint64
}

// ParallelStats returns the zero value.
func (s *System) ParallelStats() ParallelStats { return ParallelStats{} }
