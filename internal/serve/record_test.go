package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"asbr/internal/corpus"
	"asbr/internal/cpu"
	"asbr/internal/workload"
)

// requireReplays replays rec cold through corpus.Run — a fresh
// machine, no daemon, no artifact cache — and requires it to reproduce
// the recorded obs.Snapshot exactly on the record's own engine (auto,
// so superblock, like the recording daemon) and on both per-cycle
// engines, so a recorded run is also a cross-engine differential.
func requireReplays(t *testing.T, i int, rec corpus.Record) {
	t.Helper()
	for _, eng := range []string{"", "reference", "fast"} {
		rec.Config.Engine = eng
		got, err := corpus.Run(rec)
		if err != nil {
			t.Fatalf("record %d (%s) engine %q: cold replay: %v", i, rec.Key, eng, err)
		}
		if diffs := got.Diff(rec.Snapshot); len(diffs) != 0 {
			t.Errorf("record %d (%s) engine %q: cold replay diverges from served snapshot:", i, rec.Key, eng)
			for _, d := range diffs {
				t.Errorf("  %s", d)
			}
		}
	}
}

// TestRecordReplay is the record/replay contract end-to-end: every
// simulation the daemon executes lands in the replay log exactly once
// (coalesced requests do not re-record), a recording daemon runs on the
// superblock engine like any other, and every record replays to the
// served snapshot on every engine.
func TestRecordReplay(t *testing.T) {
	var buf bytes.Buffer
	lw := corpus.NewLogWriter(&buf)
	srv, ts := testServer(t, Config{Record: func(rec corpus.Record) {
		if err := lw.Append(rec); err != nil {
			t.Errorf("record: %v", err)
		}
	}})

	// A generated MiniC corpus program, compiled+scheduled+folded: the
	// richest replay path (profile run, §6 selection, folded run).
	minic, err := corpus.Generate(2001, corpus.DefaultKnobs())
	if err != nil {
		t.Fatal(err)
	}
	reqs := []SimRequest{
		{Source: exitSource},
		{Source: minic, Compile: true, Schedule: true, ASBR: true},
		{Bench: workload.ADPCMEncode, Samples: 64, ASBR: true},
	}
	for i, req := range reqs {
		cfg, err := corpus.MachineFor(srv.machineSpec(&req))
		if err != nil {
			t.Fatalf("sim %d: %v", i, err)
		}
		if got := cpu.SelectEngine(cfg); got != cpu.EngineSuperblock {
			t.Errorf("sim %d: recording daemon's machine resolves to %s, want superblock", i, got)
		}
		if status, b := post(t, ts.URL+"/v1/sim", req); status != http.StatusOK {
			t.Fatalf("sim %d: status %d: %s", i, status, b)
		}
	}
	// Replays of an already-cached key coalesce: no new record.
	if status, _ := post(t, ts.URL+"/v1/sim", reqs[0]); status != http.StatusOK {
		t.Fatal("coalesced replay failed")
	}
	if err := lw.Flush(); err != nil {
		t.Fatal(err)
	}
	if lw.Count() != len(reqs) {
		t.Fatalf("recorded %d jobs, executed %d (coalesced replay must not re-record)", lw.Count(), len(reqs))
	}

	recs, err := corpus.ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs {
		requireReplays(t, i, rec)
	}
}

// TestRecordCoalescedJob covers the async path: a job submitted through
// /v1/jobs records once, and the record round-trips the wire format.
func TestRecordCoalescedJob(t *testing.T) {
	var buf bytes.Buffer
	lw := corpus.NewLogWriter(&buf)
	srv, ts := testServer(t, Config{Record: func(rec corpus.Record) {
		if err := lw.Append(rec); err != nil {
			t.Errorf("record: %v", err)
		}
	}})

	status, b := post(t, ts.URL+"/v1/jobs", JobRequest{Sim: &SimRequest{Source: exitSource}})
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", status, b)
	}
	var job JobStatus
	if err := json.Unmarshal(b, &job); err != nil {
		t.Fatal(err)
	}
	if j := waitJob(t, ts.URL, job.ID); j.State != JobDone {
		t.Fatalf("job finished as %+v", j)
	}

	// The same program through sync /v1/sim coalesces onto the job's
	// cached result — still one record.
	if status, _ := post(t, ts.URL+"/v1/sim", SimRequest{Source: exitSource}); status != http.StatusOK {
		t.Fatal("coalesced sim failed")
	}
	srv.Drain() // idempotent with the cleanup; forces workers idle
	if err := lw.Flush(); err != nil {
		t.Fatal(err)
	}

	recs, err := corpus.ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1", len(recs))
	}
	requireReplays(t, 0, recs[0])
}
