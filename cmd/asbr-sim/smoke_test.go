package main

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"asbr/internal/cliflags"
	"asbr/internal/obs"
	"asbr/internal/serve"
)

// loopSource counts down through a zero-comparing branch whose
// condition register is defined four instructions earlier — exactly
// what the §5.2 selection pass folds under -asbr.
const loopSource = `
main:	li	t0, 100
loop:	addiu	t0, t0, -1
	addu	t2, zero, zero
	addu	t2, zero, zero
	addu	t2, zero, zero
	bnez	t0, loop
	li	a0, 0
	li	v0, 10
	syscall
spin:	j	spin
`

// TestTraceSmoke is the check behind `make trace-smoke`: a -trace run
// must produce schema-valid asbr-trace/v1 JSONL, a well-formed
// chrome://tracing twin, and pass the in-run self-check that event
// totals bit-match the simulator's counters — plain and with ASBR
// folding.
func TestTraceSmoke(t *testing.T) {
	dir := t.TempDir()
	prog := filepath.Join(dir, "loop.s")
	if err := os.WriteFile(prog, []byte(loopSource), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		asbr bool
	}{
		{"plain", false},
		{"asbr", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := options{sim: cliflags.NewSim(), asbr: tc.asbr, k: 16}
			opt.sim.Trace = filepath.Join(dir, tc.name+".jsonl")

			var buf bytes.Buffer
			if err := simulate(&buf, prog, opt); err != nil {
				t.Fatalf("simulate: %v\n%s", err, buf.String())
			}
			if !strings.Contains(buf.String(), "trace:") {
				t.Errorf("report has no trace line:\n%s", buf.String())
			}

			f, err := os.Open(opt.sim.Trace)
			if err != nil {
				t.Fatalf("open trace: %v", err)
			}
			defer f.Close()
			sum, err := obs.ValidateJSONL(f)
			if err != nil {
				t.Fatalf("trace fails schema validation: %v", err)
			}
			if sum.Counts["commit"] == 0 || sum.Counts["fetch"] == 0 {
				t.Errorf("summary missing core kinds: %+v", sum.Counts)
			}
			if tc.asbr {
				// A folded branch leaves the branch stream and shows up
				// as fold + bit_hit instead.
				if sum.Counts["fold"] == 0 || sum.Counts["bit_hit"] == 0 {
					t.Errorf("ASBR trace recorded no folds: %+v", sum.Counts)
				}
			} else if sum.Counts["branch"] == 0 {
				t.Errorf("plain trace recorded no branch events: %+v", sum.Counts)
			}

			chrome, err := os.ReadFile(obs.ChromeTracePath(opt.sim.Trace))
			if err != nil {
				t.Fatalf("chrome twin: %v", err)
			}
			var ct struct {
				TraceEvents []json.RawMessage `json:"traceEvents"`
			}
			if err := json.Unmarshal(chrome, &ct); err != nil {
				t.Fatalf("chrome twin is not trace_event JSON: %v", err)
			}
			if len(ct.TraceEvents) == 0 {
				t.Error("chrome twin has no events")
			}
		})
	}
}

// branchySource runs 100 iterations of a loop whose foldable back edge
// shares the body with a data-dependent branch too close to its
// condition's definition to fold, so the folded run still mispredicts
// and its cycle count depends on the platform's mispredict penalty.
const branchySource = `
main:	li	t0, 100
	li	t3, 0
loop:	addiu	t0, t0, -1
	addu	t2, zero, zero
	addu	t2, zero, zero
	andi	t1, t0, 3
	beqz	t1, skip
	addiu	t3, t3, 1
skip:	bnez	t0, loop
	li	a0, 0
	li	v0, 10
	syscall
spin:	j	spin
`

// TestLocalMatchesDaemon requires a local run and a -remote run of the
// same program to report the same cycles, plain and with -asbr (then
// the baseline cycles too): both must simulate the served platform.
func TestLocalMatchesDaemon(t *testing.T) {
	prog := filepath.Join(t.TempDir(), "branchy.s")
	if err := os.WriteFile(prog, []byte(branchySource), 0o644); err != nil {
		t.Fatal(err)
	}
	srv := serve.New(serve.Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Drain()
	})

	cycles := regexp.MustCompile(`(?m)^(baseline )?cycles: *\d+`)
	for _, asbr := range []bool{false, true} {
		opt := options{sim: cliflags.NewSim(), asbr: asbr, k: 16}
		var local, remote bytes.Buffer
		if err := simulate(&local, prog, opt); err != nil {
			t.Fatalf("asbr=%v: simulate: %v\n%s", asbr, err, local.String())
		}
		opt.sim.Remote = ts.URL
		if err := simulateRemote(&remote, prog, opt); err != nil {
			t.Fatalf("asbr=%v: simulateRemote: %v\n%s", asbr, err, remote.String())
		}
		got := cycles.FindAllString(local.String(), -1)
		want := cycles.FindAllString(remote.String(), -1)
		lines := 1
		if asbr {
			lines = 2
		}
		if len(want) != lines || !slices.Equal(got, want) {
			t.Errorf("asbr=%v: local run reports %q, the daemon %q", asbr, got, want)
		}
	}
}

// TestPipetraceShowsFolds requires -asbr -pipetrace to draw the folded
// run, where ASBR-injected slots are starred, not the profile run.
func TestPipetraceShowsFolds(t *testing.T) {
	prog := filepath.Join(t.TempDir(), "branchy.s")
	if err := os.WriteFile(prog, []byte(branchySource), 0o644); err != nil {
		t.Fatal(err)
	}
	opt := options{sim: cliflags.NewSim(), asbr: true, k: 16, pipeTrace: 40}
	var buf bytes.Buffer
	if err := simulate(&buf, prog, opt); err != nil {
		t.Fatalf("simulate: %v\n%s", err, buf.String())
	}
	if !regexp.MustCompile(`(?m)^cyc .*\| (IF|EX|MEM|WB) \*`).MatchString(buf.String()) {
		t.Errorf("the first 40 pipeline rows show no ASBR-injected slot:\n%s", buf.String())
	}
}
