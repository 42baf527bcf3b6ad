package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
)

// golden holds the seed-1 digests a run is checked against: the
// corpus.SnapshotDigest of every plain and asbr job, the sha256 of the
// tables JSON, and the digest of every replayed serve request keyed by
// its index in the request log. They are valid only for the sizes in
// defaultConfig.
type golden struct {
	Plain  map[string]string `json:"plain"`
	ASBR   map[string]string `json:"asbr"`
	Tables string            `json:"tables"`
	Serve  map[string]string `json:"serve"`
}

//go:embed golden/seed1.json
var seed1JSON []byte

func loadGolden(b []byte) (*golden, error) {
	g := &golden{}
	if err := json.Unmarshal(b, g); err != nil {
		return nil, fmt.Errorf("golden: %w", err)
	}
	return g, nil
}

// The accessors return nil (no check) on a nil golden.

func (g *golden) plain() map[string]string {
	if g == nil {
		return nil
	}
	return g.Plain
}

func (g *golden) asbr() map[string]string {
	if g == nil {
		return nil
	}
	return g.ASBR
}

func (g *golden) serve() map[string]string {
	if g == nil {
		return nil
	}
	return g.Serve
}

// The setters record digests when g collects a new golden file; they
// do nothing on a nil golden.

func (g *golden) setJob(asbr bool, key, digest string) {
	if g == nil {
		return
	}
	m := &g.Plain
	if asbr {
		m = &g.ASBR
	}
	if *m == nil {
		*m = map[string]string{}
	}
	(*m)[key] = digest
}

func (g *golden) setTables(digest string) {
	if g != nil {
		g.Tables = digest
	}
}

func (g *golden) setServe(key, digest string) {
	if g == nil {
		return
	}
	if g.Serve == nil {
		g.Serve = map[string]string{}
	}
	g.Serve[key] = digest
}

// merge writes g over the golden file at path, keeping the sections g
// did not collect, so each workload can refresh its own section.
func (g *golden) merge(path string) error {
	old := &golden{}
	if b, err := os.ReadFile(path); err == nil {
		if old, err = loadGolden(b); err != nil {
			return err
		}
	}
	if g.Plain != nil {
		old.Plain = g.Plain
	}
	if g.ASBR != nil {
		old.ASBR = g.ASBR
	}
	if g.Tables != "" {
		old.Tables = g.Tables
	}
	if g.Serve != nil {
		old.Serve = g.Serve
	}
	b, err := json.MarshalIndent(old, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
