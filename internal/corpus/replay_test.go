package corpus

import (
	"bytes"
	"context"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"asbr/internal/obs"
	"asbr/internal/runner"
)

// exitSource is the smallest valid assembly record payload.
const exitSource = "halt\n"

func benchRecord() Record {
	// Zero config: auto engine, default predictor.
	return Record{
		Key:   "prog/adpcm-enc?manual=1&sched=1",
		Bench: "adpcm-enc",
	}
}

func sourceRecord() Record {
	return Record{
		Key:    SourceKey(exitSource),
		Source: exitSource,
		Config: ReplayConfig{Predictor: "bimodal", Engine: "fast"},
	}
}

func TestRecordValidate(t *testing.T) {
	good := []Record{benchRecord(), sourceRecord()}
	for i, r := range good {
		if err := r.Validate(); err != nil {
			t.Errorf("good record %d: %v", i, err)
		}
	}

	cases := map[string]func(*Record){
		"both bench and source": func(r *Record) { r.Source = exitSource },
		"neither":               func(r *Record) { r.Bench = "" },
		"empty key":             func(r *Record) { r.Key = "" },
		"key wrong scheme":      func(r *Record) { r.Key = "trace/adpcm-enc?n=1&seed=1" },
		"key names other bench": func(r *Record) { r.Key = "prog/g721-enc?manual=1&sched=1" },
		"negative samples":      func(r *Record) { r.Config.Samples = -1 },
		"unknown predictor":     func(r *Record) { r.Config.Predictor = "oracle" },
		"unknown engine":        func(r *Record) { r.Config.Engine = "warp" },
	}
	for name, mutate := range cases {
		r := benchRecord()
		mutate(&r)
		if err := r.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, r)
		}
	}

	src := sourceRecord()
	src.Source = "halt\nhalt\n" // key no longer matches content
	if err := src.Validate(); err == nil {
		t.Error("stale source key: Validate accepted record")
	}
}

// TestReplayLogGolden freezes the asbr-replay/v1 wire format against
// the checked-in fixture, and round-trips it.
func TestReplayLogGolden(t *testing.T) {
	recs := []Record{benchRecord(), sourceRecord()}
	recs[0].Config.Samples = 256
	recs[0].Config.Seed = 7
	recs[0].Config.ASBR = true
	recs[0].Snapshot = obs.Snapshot{Cycles: 123, Instructions: 100, CPI: 1.23}

	var buf bytes.Buffer
	if err := WriteLog(&buf, recs); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, filepath.Join("testdata", "replay_v1.jsonl"), buf.Bytes())

	got, err := ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("read back %d records, wrote %d", len(got), len(recs))
	}
	for i := range got {
		if got[i] != recs[i] {
			t.Errorf("record %d round-trip mismatch:\n got %+v\nwant %+v", i, got[i], recs[i])
		}
	}
}

func TestReplayLogRejects(t *testing.T) {
	var good bytes.Buffer
	if err := WriteLog(&good, []Record{benchRecord()}); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(good.String(), "\n")

	cases := map[string]string{
		"empty input":     "",
		"missing header":  lines[1],
		"unknown version": strings.Replace(good.String(), "asbr-replay/v1", "asbr-replay/v0", 1),
		"manifest header": strings.Replace(good.String(), "asbr-replay/v1", "asbr-corpus/v1", 1),
		"unknown field":   lines[0] + strings.Replace(lines[1], `"key"`, `"kee"`, 1),
		"invalid record":  lines[0] + strings.Replace(lines[1], "adpcm-enc?", "g721-enc?", 1),
	}
	for name, in := range cases {
		if _, err := ReadLog(strings.NewReader(in)); err == nil {
			t.Errorf("%s: ReadLog accepted invalid input", name)
		}
	}

	// A header-only log is a valid empty log (the daemon may exit before
	// serving anything), unlike a manifest.
	if recs, err := ReadLog(strings.NewReader(lines[0])); err != nil || len(recs) != 0 {
		t.Errorf("header-only log: got %d records, err %v", len(recs), err)
	}
}

// TestLogWriterConcurrent exercises the writer the way the serve layer
// uses it: many goroutines appending. The result must be a valid log
// with every record present.
func TestLogWriterConcurrent(t *testing.T) {
	var buf bytes.Buffer
	lw := NewLogWriter(&syncBuffer{buf: &buf})
	const n = 32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := lw.Append(benchRecord()); err != nil {
				t.Errorf("Append: %v", err)
			}
		}()
	}
	wg.Wait()
	if err := lw.Flush(); err != nil {
		t.Fatal(err)
	}
	if lw.Count() != n {
		t.Fatalf("Count = %d, want %d", lw.Count(), n)
	}
	recs, err := ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != n {
		t.Fatalf("read %d records, appended %d", len(recs), n)
	}

	// Invalid records are rejected at append time, not replay time.
	if err := lw.Append(Record{Key: "x"}); err == nil {
		t.Error("Append accepted an invalid record")
	}
}

// TestReplaySharesArtifacts replays records of one benchmark through
// one artifact store, as asbr-corpus replay does: the program is built
// once for all of them, and every snapshot equals the one a replay
// over a fresh store records.
func TestReplaySharesArtifacts(t *testing.T) {
	configs := []ReplayConfig{
		{Samples: 32, Seed: 1},
		{Samples: 32, Seed: 2, Predictor: "gshare"},
		{Samples: 32, Seed: 1, ASBR: true},
		{Samples: 16, Seed: 3, Engine: "reference"},
	}
	recs := make([]Record, len(configs))
	for i, c := range configs {
		recs[i] = benchRecord()
		recs[i].Config = c
		snap, err := Run(recs[i])
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		recs[i].Snapshot = snap
	}
	arts := &runner.Artifacts{}
	for i, rec := range recs {
		got, err := RunWith(context.Background(), arts, rec)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if diffs := got.Diff(rec.Snapshot); len(diffs) > 0 {
			t.Errorf("record %d: shared-store replay differs: %v", i, diffs)
		}
	}
	if st := arts.Stats(); st.ProgramBuilds != 1 || st.ProgramGets != uint64(len(recs)) {
		t.Errorf("%d replays built the program %d times in %d gets, want once", len(recs), st.ProgramBuilds, st.ProgramGets)
	}
}

// TestMachineForDefaultPredictor: a spec that names no predictor (a
// record or request that leaves it empty) builds the documented
// bimodal default, not cpu.New's predictor-less not-taken baseline.
func TestMachineForDefaultPredictor(t *testing.T) {
	def, err := MachineFor(MachineSpec{})
	if err != nil {
		t.Fatal(err)
	}
	bimodal, err := MachineFor(MachineSpec{Predictor: "bimodal"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(def, bimodal) {
		t.Errorf("MachineFor(MachineSpec{}) = %+v, want the bimodal machine %+v", def, bimodal)
	}
}

// TestLogWriterEmpty: Flush with no appends still emits the header so
// the file parses as an empty log.
func TestLogWriterEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := NewLogWriter(&buf).Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadLog(&buf)
	if err != nil || len(recs) != 0 {
		t.Fatalf("empty log: got %d records, err %v", len(recs), err)
	}
}

// syncBuffer serializes writes; LogWriter already locks, but the
// detector should see a clean story even if the underlying writer is
// shared elsewhere.
type syncBuffer struct {
	mu  sync.Mutex
	buf *bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.Write(p)
}
