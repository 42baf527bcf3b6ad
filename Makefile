# Development targets for the ASBR reproduction. `make ci` is what the
# CI workflow's test job runs, one target per step: a gofmt check, vet,
# build, race-enabled tests, the benchmark module's vet and tests, the
# run loop's escape check, a fault-injection smoke, serving-layer,
# cluster, DSE, trace and branch-predictability smokes, the corpus
# differential-replay gate, a load check, the self-checking examples,
# short fuzz smokes of the assembler round-trip, the fault-plan
# grammar, the corpus generator, TAGE's folded histories and the
# predictor zoo's sharing, and a fuzzed engine-equivalence check.

GO ?= go
FUZZTIME ?= 10s
FAULT_FUZZTIME ?= 2m
CORPUS_FUZZTIME ?= 2m
CORPUS_ENTRIES ?= 30

.PHONY: all build fmt-check vet test race bench bench-check bench-module placement escape-check fault-smoke serve-smoke cluster-smoke dse-smoke trace-smoke predict-smoke corpus-check loadgen examples fuzz-smoke fuzz-fault fuzz-corpus fuzz-tage fuzz-zoo fuzz-engine tables ci clean

all: build

build:
	$(GO) build ./...

# Check only: fail, listing the files, if gofmt would reformat any.
# `gofmt -w .` fixes them.
fmt-check:
	@files="$$(gofmt -l .)"; test -z "$$files" || { echo "fmt-check: gofmt would reformat:"; echo "$$files"; exit 1; }

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# `go test -race ./internal/cpu` alone takes about 10 minutes on a
# shared 2-vCPU host, past go test's 10-minute default timeout.
race:
	$(GO) test -race -timeout 30m ./...

# Engine throughput over the four paper benchmarks on all three cycle
# engines: writes the asbr-bench/v2 report BENCH_cpu.json (cycles/sec,
# ns/instr, allocs/run, and the fast and superblock speedups over the
# reference engine).
bench:
	$(GO) run ./cmd/asbr-bench -o BENCH_cpu.json

# The CI regression gate: measure, then compare the host-portable
# metrics (fast and superblock speedup ratios and geomeans, allocation
# counts) against the checked-in baseline at 10% tolerance, plus an
# absolute 4x floor on the superblock geomean speedup. The baseline's
# per-row speedups are conservative floors (the reference denominator
# pays real GC, so single rows are noisy); the geomean floor is the
# gate that a superblock fused-loop regression actually trips.
bench-check:
	$(GO) run ./cmd/asbr-bench -o BENCH_cpu.json -compare BENCH_baseline.json -min-super-geomean 4

# The repository benchmark (benchmark/) is its own Go module, so the
# root `go build ./...` never compiles it: vet and test it here, so an
# internal API change that breaks the benchmark build fails CI.
bench-module:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Where the linker put the fused loops in the benchmark binary: the
# address and the alignment mod 64 of (*CPU).sbFused, sbFold and cycle.
# A move of sbFused or sbFold from 64-byte to 32-byte alignment has
# cost 6-7% on the plain and asbr workloads with no change to their
# code, so compare this output with the parent's before blaming logic
# for such a move. Not a gate.
placement:
	cd benchmark && GOWORK=off GOFLAGS= $(GO) build -o ../.bench_build/placement/asbr-benchmark .
	@$(GO) tool nm .bench_build/placement/asbr-benchmark | grep -E ' asbr/internal/cpu\.\(\*CPU\)\.(sbFused|sbFold|cycle)$$' | \
		while read addr kind sym; do echo "$$sym 0x$$addr mod64=$$((0x$$addr % 64))"; done

# The run loop keeps the pipeline (`st` in cpu.RunContext) on its
# stack; on the heap every stage advance would pay a write barrier.
# Choosing a fused loop through a method value is one way to move it
# there. Fail if the compiler's escape analysis reports the move.
escape-check:
	@if $(GO) build -gcflags=-m ./internal/cpu 2>&1 | grep -E 'moved to heap: st$$'; then \
		echo "escape-check: cpu.RunContext's pipeline moved to the heap"; exit 1; fi

# Reliability table at a small sample count: the clean control must not
# diverge and every injected corruption must be caught (nonzero exit on
# any failed cell).
fault-smoke:
	$(GO) run ./cmd/asbr-tables -table faults -n 512

# End-to-end daemon smoke: build the real asbr-serve binary, boot it on
# an ephemeral port, drive /v1/sim + /v1/sweep through the Go client,
# prove request coalescing on the /metrics counters, and SIGTERM-drain.
serve-smoke:
	$(GO) test -run TestServeSmoke -count=1 -v ./cmd/asbr-serve

# Distributed-serve smoke: boot a three-worker asbr-serve fleet, run a
# consistent-hash distributed fig6+fig11 sweep through asbr-cluster,
# SIGKILL a worker mid-sweep, and require the rebalanced merge to stay
# byte-identical to a single-process run.
cluster-smoke:
	$(GO) test -run TestClusterSmoke -count=1 -v ./cmd/asbr-cluster

# Design-space-exploration smoke: build asbr-dse, require the
# asbr-dse/v1 front to be byte-identical at -parallel 1 vs 8 and when
# evaluated on a two-worker asbr-serve fleet via -remote, require a
# front point that strictly dominates the paper-default configuration,
# and pin the documented exit codes (0 front / 1 partial / 2 usage).
dse-smoke:
	$(GO) test -run TestDSESmoke -count=1 -v ./cmd/asbr-dse

# Observability smoke: run asbr-sim with -trace (plain and -asbr),
# validate the JSONL against the asbr-trace/v1 schema and the
# chrome://tracing twin against the trace_event shape. The disabled-
# observer overhead gate is bench-check: the fast engine must stay
# within 10% of BENCH_baseline.json with no observer attached.
trace-smoke:
	$(GO) test -run TestTraceSmoke -count=1 -v ./cmd/asbr-sim

# Predictability smoke: build asbr-tables, run the branch-predictability
# classification (`-table predictability`) on two benchmarks against the
# full shadow zoo (bimodal, gshare, TAGE, loop, TAGE+loop), require the
# output byte-identical at -parallel 1 vs 8, and require at least one
# branch that ASBR folds while TAGE still mispredicts it — the scenario's
# non-vacuity gate.
predict-smoke:
	$(GO) test -run TestPredictSmoke -count=1 -v ./cmd/asbr-tables

# Corpus differential-replay gate: regenerate a seeded corpus of
# control-dominated MiniC programs from seeds alone and replay every
# entry through the fast, superblock and reference engines in lockstep
# — plus a live /v1/jobs round-trip through an in-process daemon —
# failing on the first snapshot divergence with the generating seed
# pinned. The second (inverted) run proves the harness actually catches
# a fault: an injected BDT corruption must make it fail.
corpus-check:
	$(GO) run ./cmd/asbr-corpus check -entries $(CORPUS_ENTRIES) -q -serve
	@echo "corpus-check: injected-fault run follows; it MUST fail (the ! inverts it)"
	! $(GO) run ./cmd/asbr-corpus check -entries $(CORPUS_ENTRIES) -q -fault bdt-flip:rate=1

# Load check: concurrent mixed traffic against one daemon, zero 5xx
# allowed. Run with the race detector so it doubles as a data-race net.
loadgen:
	$(GO) test -race -run TestLoadgenSmoke -count=1 -v ./internal/serve

# Run every examples/ program. Each checks its own results and exits
# nonzero (log.Fatal) on a mismatch, so `go build` alone would miss a
# wrong result.
examples:
	@for d in examples/*/; do echo "== $$d"; $(GO) run ./$$d || exit 1; done

fuzz-smoke:
	$(GO) test -fuzz=FuzzAsmRoundTrip -fuzztime=$(FUZZTIME) -run '^$$' ./internal/asm

# Fuzz the fault-plan grammar (parser totality + String/Parse round trip).
fuzz-fault:
	$(GO) test -fuzz=FuzzParsePlan -fuzztime=$(FAULT_FUZZTIME) -run '^$$' ./internal/fault

# Fuzz the corpus generator: every (seed, knobs) pair must generate
# deterministically and produce a program the compiler and scheduler
# accept.
fuzz-corpus:
	$(GO) test -fuzz=FuzzCorpusGen -fuzztime=$(CORPUS_FUZZTIME) -run '^$$' ./internal/corpus

# Fuzz TAGE's folded-history shift registers: after every Update each
# must equal the direct fold of the global history, on configurations
# drawn within the tage family's bounds, and Predict must be read-only.
fuzz-tage:
	$(GO) test -fuzz=FuzzTAGEFolds -fuzztime=$(FUZZTIME) -run '^$$' ./internal/predict

# Fuzz the shadow zoo: 2-6 member specs drawn from every predictor
# family, sharing components where their configurations are equal,
# must predict at every step of a drawn stream as the same specs built
# one by one, and again after Reset. With go test's default 60 s
# minimization of each new input, a 10 s run made 395 executions;
# with 1 s, 5,323.
fuzz-zoo:
	$(GO) test -fuzz=FuzzZoo -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s -run '^$$' ./internal/predict

# Fuzz engine equivalence: a generated MiniC program (seed and knobs
# chosen by the fuzzer) with a BIT selected from its own profile, run
# folded at the fuzzer's BDT update point, with validity tracking on or
# off and a small cycle budget, must end identically on the reference,
# fast and superblock engines: counters, registers, output and error.
fuzz-engine:
	$(GO) test -fuzz=FuzzEngineEquivalence -fuzztime=60s -run '^$$' ./internal/cpu

# Regenerate every table of the paper at the default sample count.
tables:
	$(GO) run ./cmd/asbr-tables

ci: fmt-check vet build race bench-module escape-check fault-smoke serve-smoke cluster-smoke dse-smoke trace-smoke predict-smoke corpus-check loadgen examples fuzz-smoke fuzz-fault fuzz-corpus fuzz-tage fuzz-zoo fuzz-engine

clean:
	$(GO) clean ./...
