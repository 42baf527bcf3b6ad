package isa

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRegString(t *testing.T) {
	cases := map[Reg]string{0: "zero", 2: "v0", 4: "a0", 8: "t0", 16: "s0", 29: "sp", 31: "ra"}
	for r, want := range cases {
		if got := r.String(); got != want {
			t.Errorf("Reg(%d).String() = %q, want %q", r, got, want)
		}
	}
}

func TestRegByName(t *testing.T) {
	for i := 0; i < NumRegs; i++ {
		r := Reg(i)
		got, ok := RegByName(r.String())
		if !ok || got != r {
			t.Errorf("RegByName(%q) = %v,%v, want %v,true", r.String(), got, ok, r)
		}
	}
	if got, ok := RegByName("r17"); !ok || got != 17 {
		t.Errorf("RegByName(r17) = %v,%v", got, ok)
	}
	if got, ok := RegByName("$31"); !ok || got != 31 {
		t.Errorf("RegByName($31) = %v,%v", got, ok)
	}
	if got, ok := RegByName("r05"); !ok || got != 5 {
		t.Errorf("RegByName(r05) = %v,%v", got, ok)
	}
	// Trailing garbage, signs and spaces are not register numbers.
	for _, bad := range []string{"", "r", "$", "r32", "x5", "r-1", "bogus",
		"r5x", "$5junk", "r 5", "r+5", "r1e1", "r0x1f", "$-0", "r5 "} {
		if _, ok := RegByName(bad); ok {
			t.Errorf("RegByName(%q) unexpectedly ok", bad)
		}
	}
}

func TestOpByName(t *testing.T) {
	for op := OpADD; op < opMax; op++ {
		got, ok := OpByName(op.String())
		if !ok || got != op {
			t.Errorf("OpByName(%q) = %v,%v, want %v,true", op.String(), got, ok, op)
		}
	}
	if _, ok := OpByName("invalid"); ok {
		t.Error("OpByName(invalid) unexpectedly ok")
	}
	if _, ok := OpByName("nope"); ok {
		t.Error("OpByName(nope) unexpectedly ok")
	}
}

func TestCondHolds(t *testing.T) {
	cases := []struct {
		c    Cond
		v    int32
		want bool
	}{
		{CondEQ, 0, true}, {CondEQ, 1, false}, {CondEQ, -1, false},
		{CondNE, 0, false}, {CondNE, 5, true}, {CondNE, -5, true},
		{CondLE, 0, true}, {CondLE, -3, true}, {CondLE, 3, false},
		{CondGT, 0, false}, {CondGT, 1, true}, {CondGT, -1, false},
		{CondLT, 0, false}, {CondLT, -1, true}, {CondLT, 1, false},
		{CondGE, 0, true}, {CondGE, 1, true}, {CondGE, -1, false},
	}
	for _, c := range cases {
		if got := c.c.Holds(c.v); got != c.want {
			t.Errorf("Cond %v Holds(%d) = %v, want %v", c.c, c.v, got, c.want)
		}
	}
}

// Property: DirBits agrees with Holds for every condition and any value.
func TestDirBitsMatchesHolds(t *testing.T) {
	f := func(v int32) bool {
		bits := DirBits(v)
		for c := Cond(0); c < NumConds; c++ {
			if (bits>>c&1 == 1) != c.Holds(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: exactly 3 of the 6 zero-comparison conditions hold for any
// value (EQ/NE partition, LE/GT partition, LT/GE partition).
func TestDirBitsPopcount(t *testing.T) {
	f := func(v int32) bool {
		bits := DirBits(v)
		n := 0
		for c := Cond(0); c < NumConds; c++ {
			if bits>>c&1 == 1 {
				n++
			}
		}
		return n == 3
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// randInst builds a random valid instruction for round-trip testing.
func randInst(r *rand.Rand) Inst {
	ops := []Op{
		OpADDU, OpSUBU, OpAND, OpOR, OpXOR, OpNOR, OpSLT, OpSLTU,
		OpSLL, OpSRL, OpSRA, OpSLLV, OpSRLV, OpSRAV,
		OpMULT, OpMULTU, OpDIV, OpDIVU, OpMFHI, OpMFLO, OpMTHI, OpMTLO,
		OpADDI, OpADDIU, OpSLTI, OpSLTIU, OpANDI, OpORI, OpXORI, OpLUI,
		OpLB, OpLBU, OpLH, OpLHU, OpLW, OpSB, OpSH, OpSW,
		OpBEQ, OpBNE, OpBLEZ, OpBGTZ, OpBLTZ, OpBGEZ,
		OpJ, OpJAL, OpJR, OpJALR, OpSYSCALL, OpBREAK, OpBITSW,
		OpADD, OpSUB,
	}
	op := ops[r.Intn(len(ops))]
	in := Inst{Op: op}
	reg := func() Reg { return Reg(r.Intn(NumRegs)) }
	switch op {
	case OpADD, OpADDU, OpSUB, OpSUBU, OpAND, OpOR, OpXOR, OpNOR, OpSLT, OpSLTU,
		OpSLLV, OpSRLV, OpSRAV:
		in.Rd, in.Rs, in.Rt = reg(), reg(), reg()
	case OpSLL, OpSRL, OpSRA:
		in.Rd, in.Rt, in.Imm = reg(), reg(), int32(r.Intn(32))
	case OpMULT, OpMULTU, OpDIV, OpDIVU:
		in.Rs, in.Rt = reg(), reg()
	case OpMFHI, OpMFLO:
		in.Rd = reg()
	case OpMTHI, OpMTLO, OpJR:
		in.Rs = reg()
	case OpJALR:
		in.Rd, in.Rs = reg(), reg()
	case OpADDI, OpADDIU, OpSLTI, OpSLTIU,
		OpLB, OpLBU, OpLH, OpLHU, OpLW, OpSB, OpSH, OpSW,
		OpBEQ, OpBNE:
		in.Rs, in.Rt, in.Imm = reg(), reg(), int32(int16(r.Uint32()))
	case OpANDI, OpORI, OpXORI:
		in.Rs, in.Rt, in.Imm = reg(), reg(), int32(r.Intn(0x10000))
	case OpLUI:
		in.Rt, in.Imm = reg(), int32(r.Intn(0x10000))
	case OpBLEZ, OpBGTZ, OpBLTZ, OpBGEZ:
		in.Rs, in.Imm = reg(), int32(int16(r.Uint32()))
	case OpJ, OpJAL:
		in.Target = uint32(r.Intn(1<<26)) << 2
	case OpBITSW:
		in.Imm = int32(r.Intn(0x10000))
	}
	return in
}

// Property: Encode/Decode round-trips for random valid instructions.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for n := 0; n < 20000; n++ {
		in := randInst(r)
		w, err := Encode(in)
		if err != nil {
			t.Fatalf("Encode(%v): %v", in, err)
		}
		got, err := Decode(w)
		if err != nil {
			t.Fatalf("Decode(Encode(%v)=0x%08x): %v", in, w, err)
		}
		if got != in {
			t.Fatalf("round trip mismatch: %+v -> 0x%08x -> %+v", in, w, got)
		}
	}
}

// Property: Decode(w) success implies Encode(Decode(w)) == w.
func TestDecodeEncodeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	checked := 0
	for n := 0; n < 200000; n++ {
		w := r.Uint32()
		in, err := Decode(w)
		if err != nil {
			continue
		}
		checked++
		// Raw words may carry junk in fields an opcode ignores (e.g.
		// shamt for addu); Encode normalizes those, so only compare on
		// words that already have clean don't-care fields.
		w2, err := Encode(in)
		if err != nil {
			t.Fatalf("Encode(Decode(0x%08x)=%v): %v", w, in, err)
		}
		in2, err := Decode(w2)
		if err != nil || in2 != in {
			t.Fatalf("normalize mismatch: 0x%08x -> %v -> 0x%08x -> %v (%v)", w, in, w2, in2, err)
		}
	}
	if checked < 1000 {
		t.Fatalf("too few decodable random words: %d", checked)
	}
}

func TestDecodeErrors(t *testing.T) {
	bad := []uint32{
		0x0000003f, // SPECIAL funct 0x3f unknown
		0x041f0000, // REGIMM rt=31 unknown
		0x70000000, // opcode 0x1c unknown
		0xcc000000, // opcode 0x33 unknown
	}
	for _, w := range bad {
		if in, err := Decode(w); err == nil {
			t.Errorf("Decode(0x%08x) = %v, want error", w, in)
		}
	}
}

func TestEncodeErrors(t *testing.T) {
	cases := []Inst{
		{Op: OpADDI, Imm: 0x8000},  // immediate overflow
		{Op: OpADDI, Imm: -0x8001}, // immediate underflow
		{Op: OpANDI, Imm: -1},      // negative zero-extended immediate
		{Op: OpSLL, Imm: 32},       // shamt out of range
		{Op: OpJ, Target: 2},       // misaligned target
		{Op: OpADDU, Rd: 32},       // register out of range
		{Op: OpInvalid},            // bad opcode
	}
	for _, in := range cases {
		if w, err := Encode(in); err == nil {
			t.Errorf("Encode(%+v) = 0x%08x, want error", in, w)
		}
	}
}

func TestNopIsZeroWord(t *testing.T) {
	w := MustEncode(Nop())
	if w != NopWord {
		t.Fatalf("Nop encodes to 0x%08x, want 0x%08x", w, NopWord)
	}
	in, err := Decode(NopWord)
	if err != nil || in.Op != OpSLL || in.Rd != RegZero {
		t.Fatalf("Decode(0) = %v, %v", in, err)
	}
}

func TestZeroCond(t *testing.T) {
	cases := []struct {
		in   Inst
		reg  Reg
		cond Cond
		ok   bool
	}{
		{Inst{Op: OpBEQ, Rs: 5, Rt: RegZero}, 5, CondEQ, true},
		{Inst{Op: OpBNE, Rs: 9, Rt: RegZero}, 9, CondNE, true},
		{Inst{Op: OpBEQ, Rs: 5, Rt: 6}, 0, 0, false},
		{Inst{Op: OpBNE, Rs: 5, Rt: 6}, 0, 0, false},
		{Inst{Op: OpBLEZ, Rs: 3}, 3, CondLE, true},
		{Inst{Op: OpBGTZ, Rs: 3}, 3, CondGT, true},
		{Inst{Op: OpBLTZ, Rs: 3}, 3, CondLT, true},
		{Inst{Op: OpBGEZ, Rs: 3}, 3, CondGE, true},
		{Inst{Op: OpADDU}, 0, 0, false},
		{Inst{Op: OpJ}, 0, 0, false},
	}
	for _, c := range cases {
		reg, cond, ok := c.in.ZeroCond()
		if ok != c.ok || (ok && (reg != c.reg || cond != c.cond)) {
			t.Errorf("ZeroCond(%v) = %v,%v,%v; want %v,%v,%v", c.in, reg, cond, ok, c.reg, c.cond, c.ok)
		}
	}
}

func TestBranchTarget(t *testing.T) {
	in := Inst{Op: OpBNE, Rs: 1, Imm: 3}
	if got := in.BranchTarget(0x400000); got != 0x400010 {
		t.Errorf("forward target = 0x%x, want 0x400010", got)
	}
	in.Imm = -2
	if got := in.BranchTarget(0x400010); got != 0x40000c {
		t.Errorf("backward target = 0x%x, want 0x40000c", got)
	}
}

func TestDestReg(t *testing.T) {
	cases := []struct {
		in Inst
		r  Reg
		ok bool
	}{
		{Inst{Op: OpADDU, Rd: 7}, 7, true},
		{Inst{Op: OpADDU, Rd: 0}, 0, false},
		{Inst{Op: OpADDIU, Rt: 9}, 9, true},
		{Inst{Op: OpLW, Rt: 4}, 4, true},
		{Inst{Op: OpSW, Rt: 4}, 0, false},
		{Inst{Op: OpJAL}, RegRA, true},
		{Inst{Op: OpJALR, Rd: 31}, 31, true},
		{Inst{Op: OpBEQ}, 0, false},
		{Inst{Op: OpMULT}, 0, false},
		{Inst{Op: OpMFLO, Rd: 2}, 2, true},
		{Inst{Op: OpSYSCALL}, 0, false},
	}
	for _, c := range cases {
		r, ok := c.in.DestReg()
		if ok != c.ok || (ok && r != c.r) {
			t.Errorf("DestReg(%v) = %v,%v; want %v,%v", c.in, r, ok, c.r, c.ok)
		}
	}
}

func TestSrcRegs(t *testing.T) {
	has := func(in Inst, want ...Reg) bool {
		src, n := in.SrcRegs()
		if n != len(want) {
			return false
		}
		for i := range want {
			if src[i] != want[i] {
				return false
			}
		}
		return true
	}
	cases := []struct {
		in   Inst
		want []Reg
	}{
		{Inst{Op: OpADDU, Rs: 1, Rt: 2}, []Reg{1, 2}},
		{Inst{Op: OpADDU, Rs: 0, Rt: 2}, []Reg{2}},
		{Inst{Op: OpSW, Rs: 29, Rt: 4}, []Reg{29, 4}},
		{Inst{Op: OpSLL, Rt: 6}, []Reg{6}},
		{Inst{Op: OpJ}, nil},
		{Inst{Op: OpBLEZ, Rs: 8}, []Reg{8}},
		{Inst{Op: OpSLLV, Rs: 3, Rt: 5}, []Reg{5, 3}},
		{Inst{Op: OpSYSCALL}, []Reg{RegV0, RegA0}},
	}
	for _, c := range cases {
		if !has(c.in, c.want...) {
			src, n := c.in.SrcRegs()
			t.Errorf("%v srcs = %v, want %v", c.in, src[:n], c.want)
		}
	}
	in := Inst{Op: OpADDU, Rs: 1, Rt: 2}
	if a := testing.AllocsPerRun(100, func() { in.SrcRegs() }); a != 0 {
		t.Errorf("SrcRegs allocates %v times per call", a)
	}
}

func TestProgramAccessors(t *testing.T) {
	p := &Program{
		TextBase: DefaultTextBase,
		Text: []uint32{
			MustEncode(Inst{Op: OpADDIU, Rt: 2, Imm: 1}),
			MustEncode(Inst{Op: OpSYSCALL}),
		},
		Symbols: map[string]uint32{"main": DefaultTextBase},
	}
	if p.TextEnd() != DefaultTextBase+8 {
		t.Fatalf("TextEnd = 0x%x", p.TextEnd())
	}
	if !p.InText(DefaultTextBase) || !p.InText(DefaultTextBase+4) || p.InText(DefaultTextBase+8) {
		t.Fatal("InText bounds wrong")
	}
	in, err := p.InstAt(DefaultTextBase)
	if err != nil || in.Op != OpADDIU {
		t.Fatalf("InstAt: %v, %v", in, err)
	}
	if _, err := p.WordAt(DefaultTextBase + 2); err == nil {
		t.Fatal("WordAt misaligned should fail")
	}
	if _, err := p.WordAt(0); err == nil {
		t.Fatal("WordAt out of range should fail")
	}
	if a, ok := p.Symbol("main"); !ok || a != DefaultTextBase {
		t.Fatalf("Symbol(main) = 0x%x,%v", a, ok)
	}
	if _, ok := p.Symbol("nope"); ok {
		t.Fatal("Symbol(nope) should not exist")
	}
}

func TestInstString(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		{Inst{Op: OpADDU, Rd: 2, Rs: 3, Rt: 4}, "addu v0, v1, a0"},
		{Inst{Op: OpADDIU, Rt: 2, Rs: 29, Imm: -8}, "addiu v0, sp, -8"},
		{Inst{Op: OpLW, Rt: 8, Rs: 29, Imm: 4}, "lw t0, 4(sp)"},
		{Inst{Op: OpSLL, Rd: 8, Rt: 9, Imm: 2}, "sll t0, t1, 2"},
		{Inst{Op: OpBNE, Rs: 8, Rt: 0, Imm: -5}, "bne t0, zero, -5"},
		{Inst{Op: OpBGEZ, Rs: 8, Imm: 3}, "bgez t0, 3"},
		{Inst{Op: OpJ, Target: 0x400010}, "j 0x400010"},
		{Inst{Op: OpJR, Rs: 31}, "jr ra"},
		{Inst{Op: OpSYSCALL}, "syscall"},
		{Inst{Op: OpBITSW, Imm: 2}, "bitsw 2"},
		{Inst{Op: OpMULT, Rs: 4, Rt: 5}, "mult a0, a1"},
		{Inst{Op: OpMFLO, Rd: 2}, "mflo v0"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String(%+v) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestGoldenMIPSEncodings pins our encoder to real MIPS-I instruction
// words (textbook values), anchoring the ISA to the architecture the
// paper's SimpleScalar toolchain targeted.
func TestGoldenMIPSEncodings(t *testing.T) {
	cases := []struct {
		in   Inst
		want uint32
		name string
	}{
		{Inst{Op: OpADDU, Rd: 2, Rs: 3, Rt: 4}, 0x00641021, "addu $v0,$v1,$a0"},
		{Inst{Op: OpADDIU, Rt: RegSP, Rs: RegSP, Imm: -16}, 0x27BDFFF0, "addiu $sp,$sp,-16"},
		{Inst{Op: OpLW, Rt: 8, Rs: RegSP, Imm: 4}, 0x8FA80004, "lw $t0,4($sp)"},
		{Inst{Op: OpSW, Rt: 8, Rs: RegSP, Imm: 8}, 0xAFA80008, "sw $t0,8($sp)"},
		{Inst{Op: OpJR, Rs: RegRA}, 0x03E00008, "jr $ra"},
		{Inst{Op: OpSLL, Rd: 8, Rt: 9, Imm: 2}, 0x00094080, "sll $t0,$t1,2"},
		{Inst{Op: OpSYSCALL}, 0x0000000C, "syscall"},
		{Inst{Op: OpJAL, Target: 0x00400000}, 0x0C100000, "jal 0x400000"},
		{Inst{Op: OpBEQ, Rs: 8, Rt: 0, Imm: 3}, 0x11000003, "beq $t0,$zero,+3"},
		{Inst{Op: OpBNE, Rs: 8, Rt: 0, Imm: -2}, 0x1500FFFE, "bne $t0,$zero,-2"},
		{Inst{Op: OpBGEZ, Rs: 3, Imm: 5}, 0x04610005, "bgez $v1,+5"},
		{Inst{Op: OpBLTZ, Rs: 3, Imm: 5}, 0x04600005, "bltz $v1,+5"},
		{Inst{Op: OpMULT, Rs: 4, Rt: 5}, 0x00850018, "mult $a0,$a1"},
		{Inst{Op: OpMFLO, Rd: 2}, 0x00001012, "mflo $v0"},
		{Inst{Op: OpLUI, Rt: 1, Imm: 0x1000}, 0x3C011000, "lui $at,0x1000"},
		{Inst{Op: OpORI, Rt: 1, Rs: 1, Imm: 0x8000}, 0x34218000, "ori $at,$at,0x8000"},
		{Inst{Op: OpSLT, Rd: 1, Rs: 8, Rt: 9}, 0x0109082A, "slt $at,$t0,$t1"},
		{Inst{Op: OpSRA, Rd: 10, Rt: 10, Imm: 31}, 0x000A57C3, "sra $t2,$t2,31"},
	}
	for _, c := range cases {
		got, err := Encode(c.in)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got != c.want {
			t.Errorf("%s: encoded 0x%08X, real MIPS is 0x%08X", c.name, got, c.want)
		}
		back, err := Decode(c.want)
		if err != nil || back != c.in {
			t.Errorf("%s: decode(0x%08X) = %+v, %v", c.name, c.want, back, err)
		}
	}
}
