package corpus

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"maps"
	"slices"
	"testing"

	"asbr/internal/asm"
	"asbr/internal/cc"
	"asbr/internal/core"
	"asbr/internal/isa"
	"asbr/internal/sched"
	"asbr/internal/workload"
)

// compileGoldenDigest is the sha256 of every front-end output for the
// programs of compileGoldenSources. A change that only speeds up the
// compiler, assembler, scheduler or candidate scan must leave it as is.
const compileGoldenDigest = "1058c9999b88369e54c7e3bd87ff2a6dba7fd2b57c9e768782971e729aabaf89"

// compileGoldenSources returns the four benchmarks (plain and
// hand-scheduled) and 510 generated programs, 170 at each LoopDepth
// from 1 to 3.
func compileGoldenSources(t *testing.T) (names, srcs []string) {
	t.Helper()
	for _, b := range workload.Names() {
		plain, err := workload.Source(b)
		if err != nil {
			t.Fatal(err)
		}
		scheduled, err := workload.ScheduledSource(b)
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, b, b+"/scheduled")
		srcs = append(srcs, plain, scheduled)
	}
	for seed := int64(1); seed <= 510; seed++ {
		src, err := Generate(seed, Knobs{LoopDepth: 1 + int(seed%3)})
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, fmt.Sprintf("seed%d", seed))
		srcs = append(srcs, src)
	}
	return names, srcs
}

// TestCompileGolden pins the front end byte for byte: the assembly
// cc.Compile emits, the assembled text and data, the words
// sched.Schedule produces, and the core.FoldableBranches candidates of
// both programs.
func TestCompileGolden(t *testing.T) {
	names, srcs := compileGoldenSources(t)
	h := sha256.New()
	for i, src := range srcs {
		text, err := cc.Compile(src)
		if err != nil {
			t.Fatalf("%s: compile: %v", names[i], err)
		}
		prog, err := asm.Assemble(text)
		if err != nil {
			t.Fatalf("%s: assemble: %v", names[i], err)
		}
		scheduled, _, err := sched.Schedule(prog)
		if err != nil {
			t.Fatalf("%s: schedule: %v", names[i], err)
		}
		fmt.Fprintf(h, "%s\n%d\n%s", names[i], len(text), text)
		hashWords(h, prog.Text)
		fmt.Fprintf(h, "%d\n", len(prog.Data))
		h.Write(prog.Data)
		hashWords(h, scheduled.Text)
		hashWords(h, core.FoldableBranches(prog))
		hashWords(h, core.FoldableBranches(scheduled))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != compileGoldenDigest {
		t.Fatalf("front-end output digest over %d programs = %s, want %s", len(srcs), got, compileGoldenDigest)
	}
}

// TestCompilePathsAgree holds the statement path to the text path:
// for every program of compileGoldenSources, cc.CompileToProgram, which
// assembles the generated statements without printing them, builds the
// program asm.Assemble builds from cc.Compile's text.
func TestCompilePathsAgree(t *testing.T) {
	names, srcs := compileGoldenSources(t)
	for i, src := range srcs {
		if diff, err := comparePaths(src); err != nil || diff != "" {
			t.Errorf("%s: CompileToProgram and Assemble(Compile) differ in %s (err %v)", names[i], diff, err)
		}
	}
}

// comparePaths builds src through cc.CompileToProgram and through
// asm.Assemble(cc.Compile(src)) and names the first program field in
// which they differ, or "" when the programs are equal.
func comparePaths(src string) (string, error) {
	direct, err := cc.CompileToProgram(src)
	if err != nil {
		return "", err
	}
	text, err := cc.Compile(src)
	if err != nil {
		return "", err
	}
	viaText, err := asm.Assemble(text)
	if err != nil {
		return "", err
	}
	return programDiff(direct, viaText), nil
}

// programDiff names the first field in which two programs differ, or
// returns "" when they are equal.
func programDiff(a, b *isa.Program) string {
	switch {
	case a.TextBase != b.TextBase || a.DataBase != b.DataBase:
		return "segment bases"
	case !slices.Equal(a.Text, b.Text):
		return "text words"
	case !bytes.Equal(a.Data, b.Data):
		return "data"
	case a.Entry != b.Entry:
		return "entry"
	case !maps.Equal(a.Symbols, b.Symbols):
		return "symbols"
	}
	return ""
}

// hashWords writes a length-prefixed little-endian word list.
func hashWords(h hash.Hash, ws []uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(len(ws)))
	h.Write(b[:])
	for _, w := range ws {
		binary.LittleEndian.PutUint32(b[:], w)
		h.Write(b[:])
	}
}
