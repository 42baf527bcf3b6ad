package apitypes

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"asbr/internal/cpu"
	"asbr/internal/obs"
)

// roundTrip marshals v, unmarshals into a fresh value of the same
// type, and requires bit-exact equality — the versioned wire structs
// must survive a marshal/unmarshal cycle without losing or mutating
// any field.
func roundTrip(t *testing.T, v any) {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal %T: %v", v, err)
	}
	out := reflect.New(reflect.TypeOf(v).Elem()).Interface()
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(out); err != nil {
		t.Fatalf("unmarshal %T: %v", v, err)
	}
	if !reflect.DeepEqual(v, out) {
		t.Fatalf("%T round trip mismatch:\n sent %+v\n got  %+v\n wire %s", v, v, out, b)
	}
}

func TestRoundTripSimRequest(t *testing.T) {
	roundTrip(t, &SimRequestV1{
		Bench: "adpcm-enc", Predictor: "gshare", ASBR: true, BITEntries: 8,
		Samples: 2048, Seed: 7, MaxCycles: 1 << 30, TimeoutMS: 1500,
	})
	roundTrip(t, &SimRequestV1{
		Source: "add $t0, $t1, $t2", Compile: false, Schedule: true,
		Predictor: "bimodal",
	})
}

func TestRoundTripSimResponse(t *testing.T) {
	ok := true
	roundTrip(t, &SimResponseV1{
		Bench: "g721-dec", Predictor: "bi512", ASBR: true, BITEntries: 12,
		Samples: 4096, Seed: 1,
		Stats: SimStatsV1{
			Cycles: 123456, Instructions: 100000, CPI: 1.23456,
			CondBranches: 9000, TakenBranches: 5000, Mispredicts: 700,
			Accuracy: 0.92, Folded: 1500, FoldFallbacks: 40,
			LoadUseStalls: 300, FetchStalls: 2000, MemStalls: 900,
			ExStalls: 1200, ICacheMissRate: 0.01, DCacheMissRate: 0.03,
		},
		BaselineCycles: 140000, Improvement: 0.118,
		OutputOK: &ok, Output: []int32{1, -2, 3}, ExitCode: 0,
	})
}

func TestRoundTripSweepRequest(t *testing.T) {
	roundTrip(t, &SweepRequestV1{
		Tables: []string{"fig6", "fig7"}, Samples: 1024, Seed: 3,
		Update: "ex", Parallel: 4, MaxCycles: 1 << 28, TimeoutMS: 60000,
	})
}

func TestRoundTripJobAndErrors(t *testing.T) {
	roundTrip(t, &JobRequestV1{Sim: &SimRequestV1{Bench: "adpcm-dec", Predictor: "nottaken"}})
	roundTrip(t, &JobRequestV1{
		Sim: &SimRequestV1{Bench: "adpcm-dec"}, Trace: true, TraceSample: 64,
	})
	roundTrip(t, &JobStatusV1{
		ID: "j000001", Kind: "sim", State: JobFailed,
		Error: &ErrorBodyV1{Code: "cycle-limit", Message: "exceeded MaxCycles", PC: 0x400010, Cycle: 999},
	})
	roundTrip(t, &HealthzV1{Status: "ok", QueueDepth: 1, QueueCapacity: 64, Workers: 8})
}

func TestRoundTripTraceAndStats(t *testing.T) {
	fetch, _ := obs.ParseKind("fetch")
	fold, _ := obs.ParseKind("fold")
	roundTrip(t, &TraceV1{
		JobID: "j000003", Sample: 16, Total: 4096, Dropped: 12,
		Counts: map[string]uint64{"fetch": 2048, "fold": 128},
		Events: []TraceEventV1{
			{Seq: 0, Cycle: 1, Kind: fetch, PC: 0x400000},
			{Seq: 16, Cycle: 40, Kind: fold, PC: 0x400010, Arg: 0x400030, Taken: true},
		},
	})
	roundTrip(t, &StatsV1{
		Totals: obs.Snapshot{
			Cycles: 9999, Instructions: 8000, CPI: 1.249875,
			CondBranches: 700, Folded: 120, FoldCoverage: 0.146,
		},
		SimRuns: 4, SweepRuns: 1, JobsSubmitted: 3, JobsCompleted: 3,
		QueueDepth: 1, QueueCapacity: 64, Workers: 8,
	})
}

// TestSimErrorRoundTrip drives every simulation failure class through
// the wire: encode to ErrorBodyV1, marshal, strict-unmarshal, and
// re-materialize the typed *cpu.SimError. The {code, pc, cycle} triple
// a cluster coordinator classifies on must survive without loss — a
// coordinator that cannot tell cycle-limit from a connection error
// would retry deterministic failures forever.
func TestSimErrorRoundTrip(t *testing.T) {
	// One entry per code, with details shaped like the real producers'
	// (the watchdog, guest faults, and the fault-injection harness —
	// whose injected corruptions surface as guest faults with lockstep
	// divergence reports in the detail).
	details := map[cpu.ErrCode]string{
		cpu.ErrCycleLimit:   "exceeded MaxCycles budget 1024",
		cpu.ErrCanceled:     "context deadline exceeded",
		cpu.ErrBadOpcode:    "opcode 0x3f",
		cpu.ErrFetchFault:   "DIVERGED at pc=0x00400040 cycle=512 after 100 matched commits: bdt-flip drove fetch off the text segment",
		cpu.ErrTextOverrun:  "DIVERGED at pc=0x00400ffc cycle=900 after 33 matched commits: stale-bti folded past the last instruction",
		cpu.ErrDivideByZero: "div $t0, $t1 with $t1 = 0",
	}
	for i, code := range cpu.ErrCodes() {
		detail := details[code]
		if detail == "" {
			detail = "synthetic " + code.String()
		}
		se := &cpu.SimError{
			Code:   code,
			PC:     0x0040_0000 + uint32(i*4),
			Cycle:  1000 + uint64(i),
			Detail: detail,
		}
		body := EncodeSimError(se)
		if body.Code != code.String() || body.PC != se.PC || body.Cycle != se.Cycle {
			t.Fatalf("%s: encoded body %+v does not carry {code,pc,cycle}", code, body)
		}
		// The wire trip must not perturb the structure.
		roundTrip(t, &body)
		back, ok := body.SimError()
		if !ok {
			t.Fatalf("%s: decoded body not recognized as a simulation error", code)
		}
		if back.Code != se.Code || back.PC != se.PC || back.Cycle != se.Cycle {
			t.Fatalf("%s: round trip lost structure: sent %+v got %+v", code, se, back)
		}
		if back.Code.Deterministic() != (code != cpu.ErrCanceled) {
			t.Fatalf("%s: Deterministic() = %v, want %v", code, back.Code.Deterministic(), code != cpu.ErrCanceled)
		}
	}
}

// TestSimErrorRoundTripRejectsServiceCodes pins the negative side:
// service-level and free-form codes are not simulation errors, so the
// coordinator's classifier must not manufacture a *cpu.SimError out of
// them.
func TestSimErrorRoundTripRejectsServiceCodes(t *testing.T) {
	for _, code := range []string{"backpressure", "draining", "bad-request", "not-found", "internal", "error", "none", "", "http-error"} {
		body := ErrorBodyV1{Code: code, Message: "x"}
		if _, ok := body.SimError(); ok {
			t.Errorf("code %q must not decode as a simulation error", code)
		}
	}
}

// TestParseErrCodeTotal requires ParseErrCode to invert String for the
// whole vocabulary.
func TestParseErrCodeTotal(t *testing.T) {
	for _, code := range cpu.ErrCodes() {
		got, ok := cpu.ParseErrCode(code.String())
		if !ok || got != code {
			t.Errorf("ParseErrCode(%q) = %v, %v", code.String(), got, ok)
		}
	}
	if _, ok := cpu.ParseErrCode("none"); ok {
		t.Error(`ParseErrCode("none") must report false: ErrNone is not a failure`)
	}
}

func TestRoundTripReadyz(t *testing.T) {
	roundTrip(t, &ReadyzV1{Ready: true, Status: "ok", WorkerID: "w1", QueueDepth: 2, QueueCapacity: 64})
	roundTrip(t, &ReadyzV1{Ready: false, Status: "draining", QueueDepth: 64, QueueCapacity: 64})
}

func TestRoundTripSweepBenches(t *testing.T) {
	roundTrip(t, &SweepRequestV1{
		Tables: []string{"fig6"}, Benches: []string{"adpcm-enc"},
		Samples: 256, Seed: 1, Update: "mem",
	})
	// The bench filter must be part of the coalescing key: a filtered
	// sweep and the full sweep are different computations.
	full := &SweepRequestV1{Tables: []string{"fig6"}, Samples: 256, Seed: 1, Update: "mem"}
	part := &SweepRequestV1{Tables: []string{"fig6"}, Benches: []string{"adpcm-enc"}, Samples: 256, Seed: 1, Update: "mem"}
	if full.Key() == part.Key() {
		t.Fatalf("bench filter not in sweep key: %s", full.Key())
	}
}

// TestEncodeStats pins the projection from the simulator's counters to
// the wire statistics.
func TestEncodeStats(t *testing.T) {
	st := cpu.Stats{Cycles: 200, Instructions: 100, CondBranches: 10, DirMispredicts: 2, Folded: 5}
	ws := EncodeStats(st)
	if ws.Cycles != 200 || ws.Instructions != 100 || ws.CPI != 2.0 {
		t.Fatalf("EncodeStats basic fields wrong: %+v", ws)
	}
	if ws.Accuracy != 0.8 {
		t.Fatalf("Accuracy = %v, want 0.8", ws.Accuracy)
	}
	if ws.Folded != 5 {
		t.Fatalf("Folded = %d, want 5", ws.Folded)
	}
}
