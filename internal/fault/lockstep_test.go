package fault

import (
	"testing"

	"asbr/internal/cpu"
	"asbr/internal/mem"
	"asbr/internal/workload"
)

// TestLockstepAllocs: the taps reuse their queues, so a clean pair's
// allocation count does not grow with the number of commits compared.
func TestLockstepAllocs(t *testing.T) {
	prog, err := workload.Build(workload.ADPCMEncode, true)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cpu.Config{ICache: mem.DefaultICache(), DCache: mem.DefaultDCache(), Predictor: "bimodal"}
	allocs := func(n int) (float64, uint64) {
		in, err := workload.Input(workload.ADPCMEncode, n, 1)
		if err != nil {
			t.Fatal(err)
		}
		prep := func(c *cpu.CPU) error {
			if err := workload.Pour(c, prog, "n_samples", []int32{int32(n)}); err != nil {
				return err
			}
			return workload.Pour(c, prog, "input", in)
		}
		var rep Report
		a := testing.AllocsPerRun(1, func() {
			if rep, err = RunPair(prog, cfg, cfg, prep); err != nil {
				t.Fatal(err)
			}
		})
		if rep.Diverged || rep.BaseErr != nil || rep.TestErr != nil {
			t.Fatalf("n=%d: clean pair failed: %s (base %v, test %v)", n, rep, rep.BaseErr, rep.TestErr)
		}
		return a, rep.Commits
	}
	small, smallCommits := allocs(64)
	large, largeCommits := allocs(512)
	t.Logf("n=64: %.0f allocs for %d commits; n=512: %.0f allocs for %d commits", small, smallCommits, large, largeCommits)
	if large > small {
		t.Errorf("n=512 pair made %.0f allocations, n=64 made %.0f: the taps allocate per commit", large, small)
	}
}
