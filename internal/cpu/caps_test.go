// Table-driven contract tests for the capability-driven engine
// selection API: auto (and an explicit superblock request) must never
// resolve to the superblock engine when any capability is demanded,
// must resolve to it with only an ASBR unit or a branch observer
// attached, and explicit fast/reference choices are always honored.
package cpu_test

import (
	"context"
	"io"
	"testing"

	"asbr/internal/core"
	"asbr/internal/cpu"
	"asbr/internal/mem"
	"asbr/internal/obs"
	"asbr/internal/predict"
	"asbr/internal/profile"
	"asbr/internal/workload"
)

// nullCommits is a do-nothing commit observer.
type nullCommits struct{}

func (nullCommits) OnCommit(cpu.Commit) {}

// nullSink is a do-nothing event sink.
type nullSink struct{}

func (nullSink) OnEvent(obs.Event) {}

type hook struct {
	name   string
	attach func(*cpu.Config)
}

// fusedHooks are the attachments the superblock engine's fused loops
// drive themselves: they demand no capability.
var fusedHooks = []hook{
	{"fold", func(cfg *cpu.Config) { cfg.Fold = core.NewEngine(core.DefaultConfig()) }},
	{"observer", func(cfg *cpu.Config) {
		cfg.Observer = profile.New(predict.Must(predict.NewBimodal(64)))
	}},
	{"fold+observer", func(cfg *cpu.Config) {
		cfg.Fold = core.NewEngine(core.DefaultConfig())
		cfg.Observer = profile.New(predict.Must(predict.NewBimodal(64)))
	}},
}

// capHooks enumerates every way a Config can demand cycle-by-cycle
// visibility, one hook per entry.
var capHooks = []hook{
	{"commits", func(cfg *cpu.Config) { cfg.Commits = nullCommits{} }},
	{"obs", func(cfg *cpu.Config) { cfg.Obs = nullSink{} }},
	{"trace", func(cfg *cpu.Config) { cfg.Trace = io.Discard }},
	{"ras", func(cfg *cpu.Config) { cfg.RAS = predict.NewRAS(8) }},
	{"demand-record", func(cfg *cpu.Config) { cfg.Demand.Record = true }},
}

// TestSelectEngineCapabilityFallback: every hook kind, attached alone,
// forces both auto and an explicit superblock request down to the fast
// engine.
func TestSelectEngineCapabilityFallback(t *testing.T) {
	for _, h := range capHooks {
		for _, req := range []cpu.Engine{cpu.EngineAuto, cpu.EngineSuperblock} {
			t.Run(h.name+"/"+req.String(), func(t *testing.T) {
				cfg := cpu.Config{Engine: req}
				h.attach(&cfg)
				if !cfg.Caps().CycleAccurate() {
					t.Fatalf("hook %q set no capability", h.name)
				}
				if got := cpu.SelectEngine(cfg); got != cpu.EngineFast {
					t.Errorf("SelectEngine(%s + %s) = %s, want fast", req, h.name, got)
				}
			})
		}
	}
}

// TestSelectEngineFusedHooks: an ASBR unit or a branch observer
// demands no capability, so auto and superblock requests stay on the
// superblock engine.
func TestSelectEngineFusedHooks(t *testing.T) {
	for _, h := range fusedHooks {
		for _, req := range []cpu.Engine{cpu.EngineAuto, cpu.EngineSuperblock} {
			t.Run(h.name+"/"+req.String(), func(t *testing.T) {
				cfg := cpu.Config{Engine: req}
				h.attach(&cfg)
				if cfg.Caps().CycleAccurate() {
					t.Errorf("%s demands capabilities: %+v", h.name, cfg.Caps())
				}
				if got := cpu.SelectEngine(cfg); got != cpu.EngineSuperblock {
					t.Errorf("SelectEngine(%s + %s) = %s, want superblock", req, h.name, got)
				}
			})
		}
	}
}

// TestSelectEngineHookless: with no capability demanded, auto and
// superblock both resolve to the superblock engine.
func TestSelectEngineHookless(t *testing.T) {
	for _, req := range []cpu.Engine{cpu.EngineAuto, cpu.EngineSuperblock} {
		cfg := cpu.Config{Engine: req}
		if cfg.Caps().CycleAccurate() {
			t.Fatalf("empty config demands capabilities: %+v", cfg.Caps())
		}
		if got := cpu.SelectEngine(cfg); got != cpu.EngineSuperblock {
			t.Errorf("SelectEngine(%s, hookless) = %s, want superblock", req, got)
		}
	}
}

// TestSelectEngineExplicitHonored: explicit fast/reference requests
// are honored verbatim, hooks or not.
func TestSelectEngineExplicitHonored(t *testing.T) {
	for _, req := range []cpu.Engine{cpu.EngineFast, cpu.EngineReference} {
		if got := cpu.SelectEngine(cpu.Config{Engine: req}); got != req {
			t.Errorf("SelectEngine(%s, hookless) = %s, want %s", req, got, req)
		}
		for _, h := range append(capHooks, fusedHooks...) {
			cfg := cpu.Config{Engine: req}
			h.attach(&cfg)
			if got := cpu.SelectEngine(cfg); got != req {
				t.Errorf("SelectEngine(%s + %s) = %s, want %s", req, h.name, got, req)
			}
		}
	}
}

// TestResolvedEngineLiveFallback builds real machines and runs them:
// the resolved engine a CPU reports must match SelectEngine, and a
// hook-carrying machine must produce the same architecture-visible
// results while provably off the superblock path.
func TestResolvedEngineLiveFallback(t *testing.T) {
	prog, err := workload.Build(workload.ADPCMEncode, true)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	in, err := workload.Input(workload.ADPCMEncode, 64, 1)
	if err != nil {
		t.Fatalf("input: %v", err)
	}
	base := cpu.Config{
		ICache:    mem.DefaultICache(),
		DCache:    mem.DefaultDCache(),
		Predictor: "bimodal",
		Engine:    cpu.EngineAuto,
		MaxCycles: 1 << 30,
	}
	bare, err := workload.RunContext(context.Background(), prog, base, in, 64)
	if err != nil {
		t.Fatalf("bare run: %v", err)
	}
	if got := bare.CPU.ResolvedEngine(); got != cpu.EngineSuperblock {
		t.Fatalf("hookless auto resolved to %s, want superblock", got)
	}
	// A commit observer is the cheapest architecture-neutral hook.
	hooked := base
	hooked.Commits = nullCommits{}
	res, err := workload.RunContext(context.Background(), prog, hooked, in, 64)
	if err != nil {
		t.Fatalf("hooked run: %v", err)
	}
	if got := res.CPU.ResolvedEngine(); got != cpu.EngineFast {
		t.Fatalf("auto with commit observer resolved to %s, want fast", got)
	}
	if bare.Stats != res.Stats {
		t.Errorf("fallback changed stats:\nsuper %+v\nfast  %+v", bare.Stats, res.Stats)
	}
}
