// Package isa defines the 32-bit MIPS-like instruction set architecture
// simulated by this project: instruction formats, opcodes, register
// conventions, and binary encode/decode.
//
// The ISA mirrors the SimpleScalar PISA subset used in the DAC'01 ASBR
// paper: a classic RISC load/store architecture whose conditional
// branches are all zero-comparisons against a single source register
// (plus the two-register beq/bne forms). All six zero-comparison
// conditions required by the paper's Branch Direction Table are
// expressible: ==0, !=0, <=0, >0, <0, >=0.
//
// There are no branch delay slots: the simulated pipeline squashes
// wrong-path fetches instead, which is the model the paper's folding
// semantics assume ("PC=BranchTargetAddress+4; instr=BranchTargetInstruction").
package isa

import (
	"fmt"
	"strconv"
)

// Reg identifies one of the 32 architectural general-purpose registers.
// Register 0 is hardwired to zero.
type Reg uint8

// NumRegs is the number of architectural general-purpose registers.
const NumRegs = 32

// Conventional register names (MIPS o32-style conventions).
const (
	RegZero Reg = 0  // always zero
	RegAT   Reg = 1  // assembler temporary
	RegV0   Reg = 2  // return value / syscall code
	RegV1   Reg = 3  // return value
	RegA0   Reg = 4  // argument 0
	RegA1   Reg = 5  // argument 1
	RegA2   Reg = 6  // argument 2
	RegA3   Reg = 7  // argument 3
	RegT0   Reg = 8  // caller-saved temporaries t0..t7 = r8..r15
	RegT7   Reg = 15 //
	RegS0   Reg = 16 // callee-saved s0..s7 = r16..r23
	RegS7   Reg = 23 //
	RegT8   Reg = 24
	RegT9   Reg = 25
	RegK0   Reg = 26
	RegK1   Reg = 27
	RegGP   Reg = 28 // global pointer
	RegSP   Reg = 29 // stack pointer
	RegFP   Reg = 30 // frame pointer
	RegRA   Reg = 31 // return address
)

// regNames maps register numbers to their conventional assembly names.
var regNames = [NumRegs]string{
	"zero", "at", "v0", "v1", "a0", "a1", "a2", "a3",
	"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7",
	"s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7",
	"t8", "t9", "k0", "k1", "gp", "sp", "fp", "ra",
}

// String returns the conventional assembly name of r (e.g. "sp"), or
// "r<N>" if r is out of range.
func (r Reg) String() string {
	if int(r) < len(regNames) {
		return regNames[r]
	}
	return fmt.Sprintf("r%d", uint8(r))
}

// regByName inverts regNames.
var regByName = func() map[string]Reg {
	m := make(map[string]Reg, NumRegs)
	for i, n := range regNames {
		m[n] = Reg(i)
	}
	return m
}()

// RegByName resolves a register name: either a conventional name such
// as "sp" or a numeric form, "r" or "$" followed by the decimal register
// number, such as "r29" / "$29".
func RegByName(name string) (Reg, bool) {
	if r, ok := regByName[name]; ok {
		return r, true
	}
	if len(name) < 2 || (name[0] != 'r' && name[0] != '$') {
		return 0, false
	}
	digits := name[1:]
	for i := 0; i < len(digits); i++ {
		if digits[i] < '0' || digits[i] > '9' {
			return 0, false
		}
	}
	n, err := strconv.Atoi(digits)
	if err != nil || n >= NumRegs {
		return 0, false
	}
	return Reg(n), true
}

// Op enumerates the instruction mnemonics of the ISA.
type Op uint8

// Instruction opcodes. The order groups instructions by format.
const (
	OpInvalid Op = iota

	// R-type ALU.
	OpADD  // add rd, rs, rt (trapping add; treated as addu here)
	OpADDU // addu rd, rs, rt
	OpSUB  // sub rd, rs, rt
	OpSUBU // subu rd, rs, rt
	OpAND  // and rd, rs, rt
	OpOR   // or rd, rs, rt
	OpXOR  // xor rd, rs, rt
	OpNOR  // nor rd, rs, rt
	OpSLT  // slt rd, rs, rt (signed set-less-than)
	OpSLTU // sltu rd, rs, rt

	// Shifts.
	OpSLL  // sll rd, rt, shamt
	OpSRL  // srl rd, rt, shamt
	OpSRA  // sra rd, rt, shamt
	OpSLLV // sllv rd, rt, rs
	OpSRLV // srlv rd, rt, rs
	OpSRAV // srav rd, rt, rs

	// Multiply / divide (HI/LO register pair).
	OpMULT  // mult rs, rt
	OpMULTU // multu rs, rt
	OpDIV   // div rs, rt
	OpDIVU  // divu rs, rt
	OpMFHI  // mfhi rd
	OpMFLO  // mflo rd
	OpMTHI  // mthi rs
	OpMTLO  // mtlo rs

	// I-type ALU.
	OpADDI  // addi rt, rs, imm
	OpADDIU // addiu rt, rs, imm
	OpSLTI  // slti rt, rs, imm
	OpSLTIU // sltiu rt, rs, imm
	OpANDI  // andi rt, rs, imm (zero-extended)
	OpORI   // ori rt, rs, imm (zero-extended)
	OpXORI  // xori rt, rs, imm (zero-extended)
	OpLUI   // lui rt, imm

	// Loads / stores.
	OpLB  // lb rt, off(rs)
	OpLBU // lbu rt, off(rs)
	OpLH  // lh rt, off(rs)
	OpLHU // lhu rt, off(rs)
	OpLW  // lw rt, off(rs)
	OpSB  // sb rt, off(rs)
	OpSH  // sh rt, off(rs)
	OpSW  // sw rt, off(rs)

	// Conditional branches (PC-relative, no delay slot).
	OpBEQ  // beq rs, rt, off
	OpBNE  // bne rs, rt, off
	OpBLEZ // blez rs, off
	OpBGTZ // bgtz rs, off
	OpBLTZ // bltz rs, off
	OpBGEZ // bgez rs, off

	// Jumps.
	OpJ    // j target
	OpJAL  // jal target
	OpJR   // jr rs
	OpJALR // jalr rd, rs

	// System.
	OpSYSCALL // syscall
	OpBREAK   // break
	OpBITSW   // bitsw imm: select active ASBR BIT bank (control register write, paper §7)

	opMax
)

// NumOps is the number of opcode values (including OpInvalid): the
// size of dense per-opcode dispatch tables.
const NumOps = int(opMax)

var opNames = [...]string{
	OpInvalid: "invalid",
	OpADD:     "add", OpADDU: "addu", OpSUB: "sub", OpSUBU: "subu",
	OpAND: "and", OpOR: "or", OpXOR: "xor", OpNOR: "nor",
	OpSLT: "slt", OpSLTU: "sltu",
	OpSLL: "sll", OpSRL: "srl", OpSRA: "sra",
	OpSLLV: "sllv", OpSRLV: "srlv", OpSRAV: "srav",
	OpMULT: "mult", OpMULTU: "multu", OpDIV: "div", OpDIVU: "divu",
	OpMFHI: "mfhi", OpMFLO: "mflo", OpMTHI: "mthi", OpMTLO: "mtlo",
	OpADDI: "addi", OpADDIU: "addiu", OpSLTI: "slti", OpSLTIU: "sltiu",
	OpANDI: "andi", OpORI: "ori", OpXORI: "xori", OpLUI: "lui",
	OpLB: "lb", OpLBU: "lbu", OpLH: "lh", OpLHU: "lhu", OpLW: "lw",
	OpSB: "sb", OpSH: "sh", OpSW: "sw",
	OpBEQ: "beq", OpBNE: "bne", OpBLEZ: "blez", OpBGTZ: "bgtz",
	OpBLTZ: "bltz", OpBGEZ: "bgez",
	OpJ: "j", OpJAL: "jal", OpJR: "jr", OpJALR: "jalr",
	OpSYSCALL: "syscall", OpBREAK: "break", OpBITSW: "bitsw",
}

// String returns the assembly mnemonic of the opcode.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// opByName inverts opNames, leaving out OpInvalid.
var opByName = func() map[string]Op {
	m := make(map[string]Op, NumOps)
	for op, n := range opNames {
		if Op(op) != OpInvalid {
			m[n] = Op(op)
		}
	}
	return m
}()

// OpByName resolves an assembly mnemonic to its Op, reporting whether
// the mnemonic names a real (non-pseudo) instruction.
func OpByName(name string) (Op, bool) {
	op, ok := opByName[name]
	return op, ok
}

// Inst is a decoded instruction. Fields that do not apply to a given
// opcode are zero. Imm holds the sign-extended 16-bit immediate for
// I-type instructions, the shift amount for immediate shifts, and the
// BIT bank selector for bitsw. Target holds the absolute byte address
// for j/jal.
type Inst struct {
	Op     Op
	Rd     Reg
	Rs     Reg
	Rt     Reg
	Imm    int32
	Target uint32
}

// Cond is a zero-comparison branch condition, as tracked per register
// by the paper's Branch Direction Table (BDT).
type Cond uint8

// The six zero-comparison conditions supported by the ISA's branches.
const (
	CondEQ Cond = iota // == 0
	CondNE             // != 0
	CondLE             // <= 0
	CondGT             // > 0
	CondLT             // < 0
	CondGE             // >= 0
	NumConds
)

var condNames = [...]string{"eq", "ne", "le", "gt", "lt", "ge"}

// String returns a short lower-case name for the condition ("eq", "ne", ...).
func (c Cond) String() string {
	if int(c) < len(condNames) {
		return condNames[c]
	}
	return fmt.Sprintf("cond(%d)", uint8(c))
}

// Holds reports whether the condition is satisfied by value v.
func (c Cond) Holds(v int32) bool {
	switch c {
	case CondEQ:
		return v == 0
	case CondNE:
		return v != 0
	case CondLE:
		return v <= 0
	case CondGT:
		return v > 0
	case CondLT:
		return v < 0
	case CondGE:
		return v >= 0
	}
	return false
}

// DirBits returns the bitmask of all conditions that hold for value v,
// with bit i corresponding to Cond(i). This is exactly the per-register
// direction-bit vector stored in a BDT entry (paper Figure 8). Every
// zero comparison depends only on the sign of v, so there are three
// vectors.
func DirBits(v int32) uint8 {
	switch {
	case v < 0:
		return 1<<CondNE | 1<<CondLE | 1<<CondLT
	case v == 0:
		return 1<<CondEQ | 1<<CondLE | 1<<CondGE
	}
	return 1<<CondNE | 1<<CondGT | 1<<CondGE
}

// IsCondBranch reports whether the instruction is a conditional branch.
func (i Inst) IsCondBranch() bool {
	switch i.Op {
	case OpBEQ, OpBNE, OpBLEZ, OpBGTZ, OpBLTZ, OpBGEZ:
		return true
	}
	return false
}

// IsJump reports whether the instruction is an unconditional jump.
func (i Inst) IsJump() bool {
	switch i.Op {
	case OpJ, OpJAL, OpJR, OpJALR:
		return true
	}
	return false
}

// IsLoad reports whether the instruction reads data memory.
func (i Inst) IsLoad() bool {
	switch i.Op {
	case OpLB, OpLBU, OpLH, OpLHU, OpLW:
		return true
	}
	return false
}

// IsStore reports whether the instruction writes data memory.
func (i Inst) IsStore() bool {
	switch i.Op {
	case OpSB, OpSH, OpSW:
		return true
	}
	return false
}

// ZeroCond reports the zero-comparison condition of a conditional
// branch, and whether the branch is a pure zero-comparison on Rs
// (i.e. foldable through a BDT entry). beq/bne qualify only when
// their Rt operand is the zero register.
func (i Inst) ZeroCond() (reg Reg, cond Cond, ok bool) {
	switch i.Op {
	case OpBEQ:
		if i.Rt == RegZero {
			return i.Rs, CondEQ, true
		}
	case OpBNE:
		if i.Rt == RegZero {
			return i.Rs, CondNE, true
		}
	case OpBLEZ:
		return i.Rs, CondLE, true
	case OpBGTZ:
		return i.Rs, CondGT, true
	case OpBLTZ:
		return i.Rs, CondLT, true
	case OpBGEZ:
		return i.Rs, CondGE, true
	}
	return 0, 0, false
}

// BranchTarget returns the byte address a conditional branch at pc
// jumps to when taken. The offset is in instruction words relative to
// the next sequential PC, as in MIPS.
func (i Inst) BranchTarget(pc uint32) uint32 {
	return pc + 4 + uint32(i.Imm)<<2
}

// DestReg returns the register written by the instruction, and whether
// it writes one at all. Writes to the zero register report false.
func (i Inst) DestReg() (Reg, bool) {
	var r Reg
	switch i.Op {
	case OpADD, OpADDU, OpSUB, OpSUBU, OpAND, OpOR, OpXOR, OpNOR,
		OpSLT, OpSLTU, OpSLL, OpSRL, OpSRA, OpSLLV, OpSRLV, OpSRAV,
		OpMFHI, OpMFLO, OpJALR:
		r = i.Rd
	case OpADDI, OpADDIU, OpSLTI, OpSLTIU, OpANDI, OpORI, OpXORI, OpLUI,
		OpLB, OpLBU, OpLH, OpLHU, OpLW:
		r = i.Rt
	case OpJAL:
		r = RegRA
	default:
		return 0, false
	}
	if r == RegZero {
		return 0, false
	}
	return r, true
}

// SrcRegs returns the registers read by the instruction: src[:n],
// with n of 0, 1 or 2 and never the zero register. A fixed array keeps
// the simulator's per-fetch decode free of allocation.
func (i Inst) SrcRegs() (src [2]Reg, n int) {
	add := func(r Reg) {
		if r != RegZero {
			src[n] = r
			n++
		}
	}
	switch i.Op {
	case OpADD, OpADDU, OpSUB, OpSUBU, OpAND, OpOR, OpXOR, OpNOR,
		OpSLT, OpSLTU, OpMULT, OpMULTU, OpDIV, OpDIVU:
		add(i.Rs)
		add(i.Rt)
	case OpSLLV, OpSRLV, OpSRAV:
		add(i.Rt)
		add(i.Rs)
	case OpSLL, OpSRL, OpSRA:
		add(i.Rt)
	case OpADDI, OpADDIU, OpSLTI, OpSLTIU, OpANDI, OpORI, OpXORI:
		add(i.Rs)
	case OpLB, OpLBU, OpLH, OpLHU, OpLW:
		add(i.Rs)
	case OpSB, OpSH, OpSW:
		add(i.Rs)
		add(i.Rt)
	case OpBEQ, OpBNE:
		add(i.Rs)
		add(i.Rt)
	case OpBLEZ, OpBGTZ, OpBLTZ, OpBGEZ:
		add(i.Rs)
	case OpJR, OpJALR, OpMTHI, OpMTLO:
		add(i.Rs)
	case OpSYSCALL:
		// syscall reads v0 (code) and a0 (argument) by convention.
		add(RegV0)
		add(RegA0)
	}
	return src, n
}

// NopWord is the canonical encoding of a no-op (sll zero, zero, 0).
const NopWord uint32 = 0

// Nop returns the canonical no-op instruction.
func Nop() Inst { return Inst{Op: OpSLL} }

// String renders the instruction in assembly syntax. PC-relative
// branch offsets are shown as word offsets; use the disassembler in
// package asm for label-resolved listings.
func (i Inst) String() string {
	switch i.Op {
	case OpADD, OpADDU, OpSUB, OpSUBU, OpAND, OpOR, OpXOR, OpNOR, OpSLT, OpSLTU:
		return fmt.Sprintf("%s %s, %s, %s", i.Op, i.Rd, i.Rs, i.Rt)
	case OpSLL, OpSRL, OpSRA:
		return fmt.Sprintf("%s %s, %s, %d", i.Op, i.Rd, i.Rt, i.Imm)
	case OpSLLV, OpSRLV, OpSRAV:
		return fmt.Sprintf("%s %s, %s, %s", i.Op, i.Rd, i.Rt, i.Rs)
	case OpMULT, OpMULTU, OpDIV, OpDIVU:
		return fmt.Sprintf("%s %s, %s", i.Op, i.Rs, i.Rt)
	case OpMFHI, OpMFLO:
		return fmt.Sprintf("%s %s", i.Op, i.Rd)
	case OpMTHI, OpMTLO:
		return fmt.Sprintf("%s %s", i.Op, i.Rs)
	case OpADDI, OpADDIU, OpSLTI, OpSLTIU, OpANDI, OpORI, OpXORI:
		return fmt.Sprintf("%s %s, %s, %d", i.Op, i.Rt, i.Rs, i.Imm)
	case OpLUI:
		return fmt.Sprintf("%s %s, %d", i.Op, i.Rt, i.Imm)
	case OpLB, OpLBU, OpLH, OpLHU, OpLW, OpSB, OpSH, OpSW:
		return fmt.Sprintf("%s %s, %d(%s)", i.Op, i.Rt, i.Imm, i.Rs)
	case OpBEQ, OpBNE:
		return fmt.Sprintf("%s %s, %s, %d", i.Op, i.Rs, i.Rt, i.Imm)
	case OpBLEZ, OpBGTZ, OpBLTZ, OpBGEZ:
		return fmt.Sprintf("%s %s, %d", i.Op, i.Rs, i.Imm)
	case OpJ, OpJAL:
		return fmt.Sprintf("%s 0x%x", i.Op, i.Target)
	case OpJR:
		return fmt.Sprintf("%s %s", i.Op, i.Rs)
	case OpJALR:
		return fmt.Sprintf("%s %s, %s", i.Op, i.Rd, i.Rs)
	case OpSYSCALL, OpBREAK:
		return i.Op.String()
	case OpBITSW:
		return fmt.Sprintf("%s %d", i.Op, i.Imm)
	}
	return i.Op.String()
}
