package fault

import (
	"bytes"
	"fmt"

	"asbr/internal/cpu"
	"asbr/internal/isa"
)

// Tap collects the commit stream of one machine. It implements
// cpu.CommitObserver; install one per machine via cpu.Config.Commits
// before building the CPUs handed to Lockstep.
type Tap struct {
	q []cpu.Commit
}

// OnCommit implements cpu.CommitObserver.
func (t *Tap) OnCommit(c cpu.Commit) { t.q = append(t.q, c) }

// pop removes the oldest queued commit. It shifts the rest down rather
// than reslicing past the head, so the queue keeps its backing array
// and OnCommit stops allocating once the queue has reached its depth.
func (t *Tap) pop() {
	t.q = t.q[:copy(t.q, t.q[1:])]
}

// Report is the outcome of a lockstep comparison. A clean pair leaves
// Diverged false and PC/Cycle zero; a divergence reports the first
// architecturally visible mismatch at the test machine's PC and cycle.
type Report struct {
	Diverged bool
	PC       uint32 // test-machine address of the first divergent commit
	Cycle    uint64 // test-machine cycle of that commit
	Detail   string

	Commits  uint64 // commit pairs matched before the divergence (or total)
	BaseErr  error  // simulation error of the baseline machine, if any
	TestErr  error  // simulation error of the test machine, if any
	BaseExit int32
	TestExit int32
}

// String renders the report for CLI output.
func (r Report) String() string {
	if !r.Diverged {
		return fmt.Sprintf("no divergence (%d commits compared)", r.Commits)
	}
	return fmt.Sprintf("DIVERGED at pc=0x%08x cycle=%d after %d matched commits: %s",
		r.PC, r.Cycle, r.Commits, r.Detail)
}

// Lockstep runs base and test to completion, comparing their commit
// streams as they are produced, and returns the first architectural
// divergence. The machines must have bt and tt installed as their
// commit observers.
//
// The comparison is at commit granularity, not cycle granularity,
// because folding legitimately changes timing. The one asymmetry a
// correct fold introduces is also legitimately skipped: a conditional
// branch committed by the baseline is absent from a test stream that
// folded it, and since a conditional branch writes no register and no
// memory, dropping the baseline-only branch commit is architecturally
// safe. Everything else must match exactly — address, opcode, register
// write, store effect — and after the streams drain, the exit codes,
// output streams and failure codes must agree too.
func Lockstep(base, test *cpu.CPU, bt, tt *Tap) Report {
	var r Report
	done := func(c *cpu.CPU) bool { return c.Halted() || c.Err() != nil }
	diverge := func(pc uint32, cycle uint64, format string, args ...any) {
		r.Diverged = true
		r.PC = pc
		r.Cycle = cycle
		r.Detail = fmt.Sprintf(format, args...)
	}

	for !r.Diverged {
		// Advance each machine until it produces a commit or finishes.
		// Single-issue machines commit at most one instruction per
		// cycle, so the queues stay O(1) deep.
		for len(bt.q) == 0 && !done(base) {
			base.StepWatchdog()
		}
		for len(tt.q) == 0 && !done(test) {
			test.StepWatchdog()
		}
		if len(bt.q) == 0 && len(tt.q) == 0 {
			break // both machines finished with aligned streams
		}
		if len(tt.q) == 0 {
			// Test machine finished; baseline still committing. Folded
			// branches may trail legitimately, anything else diverges.
			b := bt.q[0]
			bt.pop()
			if b.Branch {
				continue
			}
			diverge(b.PC, b.Cycle, "baseline committed %s but test machine already finished", b.Op)
			break
		}
		if len(bt.q) == 0 {
			t := tt.q[0]
			diverge(t.PC, t.Cycle, "test machine committed %s but baseline already finished", t.Op)
			break
		}
		b, t := bt.q[0], tt.q[0]
		if b.PC != t.PC || b.Op != t.Op {
			if b.Branch {
				// Folded out of the test run: no architectural effects
				// to compare, skip the baseline-only commit.
				bt.pop()
				continue
			}
			diverge(t.PC, t.Cycle, "control flow: baseline at 0x%08x (%s), test at 0x%08x (%s)",
				b.PC, b.Op, t.PC, t.Op)
			break
		}
		if mismatch := effectMismatch(b, t); mismatch != "" {
			diverge(t.PC, t.Cycle, "%s", mismatch)
			break
		}
		bt.pop()
		tt.pop()
		r.Commits++
	}

	r.BaseErr = base.Err()
	r.TestErr = test.Err()
	r.BaseExit = base.ExitCode()
	r.TestExit = test.ExitCode()
	if r.Diverged {
		return r
	}

	// The instruction streams matched; the run endings must too.
	switch {
	case cpu.CodeOf(r.BaseErr) != cpu.CodeOf(r.TestErr):
		diverge(test.PC(), test.Stats().Cycles, "failure mismatch: baseline %v, test %v", r.BaseErr, r.TestErr)
	case r.BaseExit != r.TestExit:
		diverge(test.PC(), test.Stats().Cycles, "exit code %d vs baseline %d", r.TestExit, r.BaseExit)
	case !int32sEqual(base.Output, test.Output):
		diverge(test.PC(), test.Stats().Cycles, "output stream mismatch (%d vs %d words)",
			len(test.Output), len(base.Output))
	case !bytes.Equal(base.OutputStr, test.OutputStr):
		diverge(test.PC(), test.Stats().Cycles, "text output mismatch")
	}
	return r
}

// effectMismatch compares the architectural effects of two commits of
// the same instruction, returning a description or "".
func effectMismatch(b, t cpu.Commit) string {
	if b.HasDest != t.HasDest || (b.HasDest && b.Dest != t.Dest) {
		return fmt.Sprintf("destination mismatch on %s", t.Op)
	}
	if b.HasDest && b.Value != t.Value {
		return fmt.Sprintf("%s wrote %s=%d, baseline wrote %d", t.Op, t.Dest, t.Value, b.Value)
	}
	if b.Store != t.Store {
		return fmt.Sprintf("store presence mismatch on %s", t.Op)
	}
	if b.Store && (b.Addr != t.Addr || b.StoreVal != t.StoreVal) {
		return fmt.Sprintf("%s stored %d at 0x%08x, baseline stored %d at 0x%08x",
			t.Op, t.StoreVal, t.Addr, b.StoreVal, b.Addr)
	}
	return ""
}

func int32sEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// RunPair builds a baseline/test machine pair over the same program,
// installs commit taps, applies prep to each machine (input pouring,
// register seeding), and lockstep-compares them. baseCfg and testCfg
// are taken by value; their Commits fields are overwritten, which
// keeps both machines on the per-cycle stages (cpu.Caps.CommitObs).
func RunPair(prog *isa.Program, baseCfg, testCfg cpu.Config, prep func(*cpu.CPU) error) (Report, error) {
	bt, tt := &Tap{}, &Tap{}
	baseCfg.Commits = bt
	testCfg.Commits = tt
	base, err := cpu.New(baseCfg, prog)
	if err != nil {
		return Report{}, err
	}
	test, err := cpu.New(testCfg, prog)
	if err != nil {
		return Report{}, err
	}
	if prep != nil {
		if err := prep(base); err != nil {
			return Report{}, err
		}
		if err := prep(test); err != nil {
			return Report{}, err
		}
	}
	return Lockstep(base, test, bt, tt), nil
}
