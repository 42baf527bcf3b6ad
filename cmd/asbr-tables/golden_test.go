package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"asbr/internal/cpu"
	"asbr/internal/experiment"
)

// textGoldenDigests is the sha256 of the rendered text of every table
// (what `asbr-tables -n 64 -update ex|mem` prints) at 64 samples, seed
// 1, per BDT update point. experiment's TestTablesGolden pins the same
// sweep's JSON; this pins what the text renderer reads of it.
var textGoldenDigests = map[cpu.Stage]string{
	cpu.StageMEM: "783e6e468fdd9673c90c21771a69b20877859975b85632cb3280078ac8079d2f",
	cpu.StageEX:  "6194a56b5408f1e55e4a581fd374ffa3f8e199d2c863e7f78f96acac59322132",
}

func TestTablesTextGolden(t *testing.T) {
	for _, up := range []cpu.Stage{cpu.StageMEM, cpu.StageEX} {
		tabs, err := experiment.NewSweep(experiment.Options{Samples: 64, Seed: 1, Update: up}).Tables(nil)
		if err != nil {
			t.Fatalf("update %s: %v", up, err)
		}
		var b bytes.Buffer
		render(&b, tabs)
		sum := sha256.Sum256(b.Bytes())
		if got := hex.EncodeToString(sum[:]); got != textGoldenDigests[up] {
			t.Errorf("update %s: text digest = %s, want %s", up, got, textGoldenDigests[up])
		}
	}
}
