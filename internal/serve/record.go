package serve

import (
	"asbr/internal/corpus"
	"asbr/internal/runner"
)

// recordFor maps one executed simulation onto its replay record: the
// program's canonical identity, the configuration fields that can
// change the snapshot, and the snapshot itself. Replaying the record
// through corpus.Run runs the same corpus.RunBench / corpus.RunSource
// execution path the daemon just ran, so the replayed snapshot is
// byte-identical to Record.Snapshot.
func recordFor(req *SimRequest, resp *SimResponse) corpus.Record {
	rec := corpus.Record{
		Config: corpus.ReplayConfig{
			Predictor:  req.Predictor,
			ASBR:       req.ASBR,
			BITEntries: req.BITEntries,
			MaxCycles:  req.MaxCycles,
			Update:     req.Update,
			BITBanks:   req.BITBanks,
			ICacheKB:   req.ICacheKB,
			DCacheKB:   req.DCacheKB,
		},
		Snapshot: resp.Stats,
	}
	if req.Bench != "" {
		rec.Bench = req.Bench
		// The scheduling level rides in the canonical key's
		// manual/compiler bits, which is how replay rebuilds the program.
		rec.Key = runner.NewProgramKey(req.Bench, req.BuildOptions()).Canonical()
		rec.Config.Samples = req.Samples
		rec.Config.Seed = req.Seed
	} else {
		rec.Source = req.Source
		rec.Compile = req.Compile
		rec.Schedule = req.Schedule
		rec.Key = corpus.SourceKey(req.Source)
	}
	return rec
}
