package cpu

import (
	"asbr/internal/core"
	"asbr/internal/isa"
)

// DecodedInst is one predecoded text-segment word: the decoded
// instruction plus every derived fact the pipeline would otherwise
// recompute on each fetch — destination register, source registers,
// instruction-class flags, and the resolved branch target. Entries are
// immutable after Predecode returns.
type DecodedInst struct {
	In   isa.Inst
	Word uint32
	OK   bool // decode succeeded

	Dest    isa.Reg
	HasDest bool
	Src     [2]isa.Reg
	NSrc    uint8

	CondBranch bool
	Load       bool
	Store      bool
	// BranchTarget is the taken-path address of a conditional branch
	// (In.BranchTarget at this entry's own PC), zero otherwise.
	BranchTarget uint32

	// fclass is how the superblock engine's fused loop (sbFused)
	// treats the word; fcBreak ends a fused run.
	fclass uint8
	// bdt is the word's BDT index (core.BDTIndex of its destination, or
	// core.BDTSink when it writes none), which the fold-aware fused loop
	// issues and delivers without testing HasDest.
	bdt uint8
}

// Fused-loop word classes (DecodedInst.fclass).
const (
	fcBreak   uint8 = iota // not modeled: div, OS surface, undecodable
	fcPlain                // single-cycle ALU work
	fcLoad                 // load: data access in MEM
	fcStore                // store: data access in MEM
	fcBranch               // conditional branch: resolves in EX
	fcJump                 // j, jal: redirects fetch as it leaves ID
	fcJumpReg              // jr, jalr: redirects fetch from EX
	fcMult                 // mult, multu: occupies EX for Config.MultCycles
)

// Predecoded is a program's text segment decoded once into a flat
// table indexed by word. It is read-only after construction, so one
// table may back any number of concurrently running machines — the
// runner artifact cache shares it across sweep cells.
type Predecoded struct {
	textBase uint32
	insts    []DecodedInst
}

// Predecode builds the flat decode table for prog's text segment.
// Undecodable words keep OK=false and fault only if they reach
// execute, exactly like the per-fetch decode path.
func Predecode(prog *isa.Program) *Predecoded {
	p := &Predecoded{
		textBase: prog.TextBase,
		insts:    make([]DecodedInst, len(prog.Text)),
	}
	for i, w := range prog.Text {
		d := &p.insts[i]
		decodeWord(d, w, prog.TextBase+uint32(i)*isa.InstructionBytes)
		d.fclass = fusedClass(d)
	}
	return p
}

// decodeWord fills d with the decoded form of word fetched from pc —
// the one decoder behind both the predecode table and the reference
// engine's per-fetch decode. d must be zero.
func decodeWord(d *DecodedInst, word, pc uint32) {
	d.Word = word
	in, err := isa.Decode(word)
	d.In, d.OK = in, err == nil
	if !d.OK {
		return
	}
	if r, ok := in.DestReg(); ok {
		d.Dest, d.HasDest = r, true
		d.bdt = core.BDTIndex(r)
	}
	src, n := in.SrcRegs()
	d.Src, d.NSrc = src, uint8(n)
	d.CondBranch = in.IsCondBranch()
	d.Load = in.IsLoad()
	d.Store = in.IsStore()
	if d.CondBranch {
		d.BranchTarget = in.BranchTarget(pc)
	}
}

// fusedClass classifies a decoded word for the fused loop. Everything
// flows except what needs more than the loop models — div (its EX can
// fault), the OS surface (syscall, break, bitsw) and undecodable
// words, which fault in EX. mult/multu flow with their EX occupancy.
// mfhi/mflo/mthi/mtlo flow: in program order their EX order is the
// same either way, so HI/LO reads and writes sequence identically.
func fusedClass(d *DecodedInst) uint8 {
	if !d.OK {
		return fcBreak
	}
	switch d.In.Op {
	case isa.OpMULT, isa.OpMULTU:
		return fcMult
	case isa.OpDIV, isa.OpDIVU, isa.OpSYSCALL, isa.OpBREAK, isa.OpBITSW:
		return fcBreak
	case isa.OpJ, isa.OpJAL:
		return fcJump
	case isa.OpJR, isa.OpJALR:
		return fcJumpReg
	}
	switch {
	case d.CondBranch:
		return fcBranch
	case d.Load:
		return fcLoad
	case d.Store:
		return fcStore
	}
	return fcPlain
}

// readsReg reports whether instruction d reads register r — the same
// source comparison the load-use interlock performs.
func readsReg(d *DecodedInst, r isa.Reg) bool {
	for i := uint8(0); i < d.NSrc; i++ {
		if d.Src[i] == r {
			return true
		}
	}
	return false
}

// Len returns the number of predecoded instruction words.
func (p *Predecoded) Len() int { return len(p.insts) }

// TextBase returns the byte address of the first predecoded word.
func (p *Predecoded) TextBase() uint32 { return p.textBase }

// at returns the entry for text address pc. The caller guarantees pc
// is a word-aligned text address (the fetch stage checks InText first).
func (p *Predecoded) at(pc uint32) *DecodedInst {
	return &p.insts[(pc-p.textBase)/4]
}

// lookup returns the entry for pc, or nil when pc is not a word-aligned
// address inside the table.
func (p *Predecoded) lookup(pc uint32) *DecodedInst {
	i := (pc - p.textBase) / 4
	if pc%4 != 0 || i >= uint32(len(p.insts)) {
		return nil
	}
	return &p.insts[i]
}

// Matches reports whether the table was predecoded from a program with
// the same text placement and contents — the validation cpu.New runs
// on a caller-supplied shared table.
func (p *Predecoded) Matches(prog *isa.Program) bool {
	if p.textBase != prog.TextBase || len(p.insts) != len(prog.Text) {
		return false
	}
	for i, w := range prog.Text {
		if p.insts[i].Word != w {
			return false
		}
	}
	return true
}

// Mix is an instruction-class census of a predecoded text segment: the
// static instruction mix asbr-asm -predecode and asbr-cc -stats print.
type Mix struct {
	Words        int // text words
	Undecodable  int
	CondBranches int
	Foldable     int // zero-comparison branches a BDT entry could fold
	Jumps        int
	Loads        int
	Stores       int
	MulDiv       int
}

// Summarize computes the static instruction mix of the table.
func (p *Predecoded) Summarize() Mix {
	m := Mix{Words: len(p.insts)}
	for i := range p.insts {
		d := &p.insts[i]
		if !d.OK {
			m.Undecodable++
			continue
		}
		switch {
		case d.CondBranch:
			m.CondBranches++
			if _, _, ok := d.In.ZeroCond(); ok {
				m.Foldable++
			}
		case d.In.IsJump():
			m.Jumps++
		case d.Load:
			m.Loads++
		case d.Store:
			m.Stores++
		}
		switch d.In.Op {
		case isa.OpMULT, isa.OpMULTU, isa.OpDIV, isa.OpDIVU:
			m.MulDiv++
		}
	}
	return m
}
