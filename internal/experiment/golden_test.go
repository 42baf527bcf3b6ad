package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"asbr/internal/cpu"
)

// tablesGoldenDigests is the sha256 of the JSON of every table
// (Sweep.Tables(nil)) at 64 samples, seed 1, per BDT update point. A
// change that only speeds up a sweep must leave them as they are.
var tablesGoldenDigests = map[cpu.Stage]string{
	cpu.StageMEM: "c21591a8811308b363e528fa45220337975219de2b604cdea17c2dc39b457fbc",
	cpu.StageEX:  "320021641262cdca9a8f476831ab74aa3b308bf3cbfece85c945871044025845",
}

// TestTablesGolden pins every table of the paper's evaluation byte for
// byte, serially and on four workers.
func TestTablesGolden(t *testing.T) {
	for _, up := range []cpu.Stage{cpu.StageMEM, cpu.StageEX} {
		for _, par := range []int{1, 4} {
			tabs, err := NewSweep(Options{Samples: 64, Seed: 1, Update: up, Parallel: par}).Tables(nil)
			if err != nil {
				t.Fatalf("update %s, parallel %d: %v", up, par, err)
			}
			b, err := json.Marshal(tabs)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			if got := hex.EncodeToString(sum[:]); got != tablesGoldenDigests[up] {
				t.Errorf("update %s, parallel %d: tables digest = %s, want %s", up, par, got, tablesGoldenDigests[up])
			}
		}
	}
}
