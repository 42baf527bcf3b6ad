package asm

import (
	"math/rand"
	"strings"
	"testing"

	"asbr/internal/isa"
)

func mustAssemble(t *testing.T, src string) *isa.Program {
	t.Helper()
	p, err := Assemble(src)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	return p
}

func decodeAll(t *testing.T, p *isa.Program) []isa.Inst {
	t.Helper()
	out := make([]isa.Inst, len(p.Text))
	for i, w := range p.Text {
		in, err := isa.Decode(w)
		if err != nil {
			t.Fatalf("word %d (0x%08x): %v", i, w, err)
		}
		out[i] = in
	}
	return out
}

func TestBasicProgram(t *testing.T) {
	p := mustAssemble(t, `
		.text
main:	addiu	sp, sp, -16
	addu	t0, a0, a1
	lw	t1, 4(sp)
	sw	t1, 8(sp)
	jr	ra
`)
	ins := decodeAll(t, p)
	want := []isa.Inst{
		{Op: isa.OpADDIU, Rt: isa.RegSP, Rs: isa.RegSP, Imm: -16},
		{Op: isa.OpADDU, Rd: isa.RegT0, Rs: isa.RegA0, Rt: isa.RegA1},
		{Op: isa.OpLW, Rt: 9, Rs: isa.RegSP, Imm: 4},
		{Op: isa.OpSW, Rt: 9, Rs: isa.RegSP, Imm: 8},
		{Op: isa.OpJR, Rs: isa.RegRA},
	}
	if len(ins) != len(want) {
		t.Fatalf("got %d instructions, want %d", len(ins), len(want))
	}
	for i := range want {
		if ins[i] != want[i] {
			t.Errorf("inst %d = %+v, want %+v", i, ins[i], want[i])
		}
	}
	if p.Entry != isa.DefaultTextBase {
		t.Errorf("Entry = 0x%x", p.Entry)
	}
}

func TestLabelsAndBranches(t *testing.T) {
	p := mustAssemble(t, `
main:	beqz	a0, done
loop:	addiu	a0, a0, -1
	bnez	a0, loop
	bgez	a0, loop
done:	jr	ra
`)
	ins := decodeAll(t, p)
	// beqz at word 0 -> done at word 4: off = 4 - (0+1) = 3
	if ins[0].Op != isa.OpBEQ || ins[0].Imm != 3 {
		t.Errorf("beqz = %+v", ins[0])
	}
	// bnez at word 2 -> loop at word 1: off = 1 - 3 = -2
	if ins[2].Op != isa.OpBNE || ins[2].Imm != -2 {
		t.Errorf("bnez = %+v", ins[2])
	}
	if ins[3].Op != isa.OpBGEZ || ins[3].Imm != -3 {
		t.Errorf("bgez = %+v", ins[3])
	}
	if got := p.Symbols["done"]; got != isa.DefaultTextBase+16 {
		t.Errorf("done = 0x%x", got)
	}
}

func TestLiExpansion(t *testing.T) {
	p := mustAssemble(t, `
	li	t0, 42
	li	t1, -5
	li	t2, 0x9000
	li	t3, 0x12345678
	li	t4, -100000
`)
	ins := decodeAll(t, p)
	if len(ins) != 1+1+1+2+2 {
		t.Fatalf("expanded to %d words, want 7: %v", len(ins), ins)
	}
	if ins[0].Op != isa.OpADDIU || ins[0].Imm != 42 {
		t.Errorf("li small = %+v", ins[0])
	}
	if ins[1].Op != isa.OpADDIU || ins[1].Imm != -5 {
		t.Errorf("li negative = %+v", ins[1])
	}
	if ins[2].Op != isa.OpORI || ins[2].Imm != 0x9000 {
		t.Errorf("li 16-bit unsigned = %+v", ins[2])
	}
	if ins[3].Op != isa.OpLUI || ins[3].Imm != 0x1234 || ins[4].Op != isa.OpORI || ins[4].Imm != 0x5678 {
		t.Errorf("li 32-bit = %+v %+v", ins[3], ins[4])
	}
}

func TestLaAndSymbolicLoads(t *testing.T) {
	p := mustAssemble(t, `
	.data
buf:	.word	1, 2, 3
	.text
main:	la	a0, buf
	lw	t0, buf
	sw	t0, buf+8
	jr	ra
`)
	ins := decodeAll(t, p)
	base := isa.DefaultDataBase
	if ins[0].Op != isa.OpLUI || uint32(ins[0].Imm) != base>>16 {
		t.Errorf("la lui = %+v", ins[0])
	}
	if ins[1].Op != isa.OpORI || uint32(ins[1].Imm) != base&0xffff {
		t.Errorf("la ori = %+v", ins[1])
	}
	// lw t0, buf -> lui at; lw t0, lo(at)
	if ins[2].Op != isa.OpLUI || ins[2].Rt != isa.RegAT {
		t.Errorf("symbolic lw lui = %+v", ins[2])
	}
	if ins[3].Op != isa.OpLW || ins[3].Rs != isa.RegAT {
		t.Errorf("symbolic lw = %+v", ins[3])
	}
	// Effective address check.
	eff := uint32(ins[2].Imm)<<16 + uint32(ins[3].Imm)
	if eff != base {
		t.Errorf("lw effective addr = 0x%x, want 0x%x", eff, base)
	}
	eff = uint32(ins[4].Imm)<<16 + uint32(ins[5].Imm)
	if eff != base+8 {
		t.Errorf("sw effective addr = 0x%x, want 0x%x", eff, base+8)
	}
	// Data segment contents.
	if len(p.Data) != 12 || p.Data[0] != 1 || p.Data[4] != 2 || p.Data[8] != 3 {
		t.Errorf("data = %v", p.Data)
	}
}

func TestHiLoCarry(t *testing.T) {
	// Address with bit 15 set needs the +1 carry in hi.
	hi, lo := hiLo(0x1000_8004)
	if uint32(int64(hi)<<16+int64(lo)) != 0x1000_8004 {
		t.Fatalf("hiLo broken: hi=0x%x lo=%d", hi, lo)
	}
	f := func(addr uint32) bool {
		hi, lo := hiLo(addr)
		return uint32(int64(hi)<<16+int64(lo)) == addr
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		if a := r.Uint32(); !f(a) {
			t.Fatalf("hiLo(0x%08x) does not reconstruct", a)
		}
	}
}

func TestPseudoOps(t *testing.T) {
	p := mustAssemble(t, `
	nop
	move	t0, a0
	neg	t1, t0
	not	t2, t0
	mul	t3, t0, t1
	div	t4, t0, t1
	rem	t5, t0, t1
	b	end
end:	jr	ra
`)
	ins := decodeAll(t, p)
	if ins[0] != isa.Nop() {
		t.Errorf("nop = %+v", ins[0])
	}
	if ins[1].Op != isa.OpADDU || ins[1].Rt != isa.RegZero {
		t.Errorf("move = %+v", ins[1])
	}
	if ins[2].Op != isa.OpSUBU || ins[2].Rs != isa.RegZero {
		t.Errorf("neg = %+v", ins[2])
	}
	if ins[3].Op != isa.OpNOR {
		t.Errorf("not = %+v", ins[3])
	}
	if ins[4].Op != isa.OpMULT || ins[5].Op != isa.OpMFLO {
		t.Errorf("mul = %+v %+v", ins[4], ins[5])
	}
	if ins[6].Op != isa.OpDIV || ins[7].Op != isa.OpMFLO {
		t.Errorf("div3 = %+v %+v", ins[6], ins[7])
	}
	if ins[8].Op != isa.OpDIV || ins[9].Op != isa.OpMFHI {
		t.Errorf("rem = %+v %+v", ins[8], ins[9])
	}
	if ins[10].Op != isa.OpBEQ || ins[10].Rs != isa.RegZero || ins[10].Rt != isa.RegZero || ins[10].Imm != 0 {
		t.Errorf("b = %+v", ins[10])
	}
}

func TestComparisonBranchPseudos(t *testing.T) {
	p := mustAssemble(t, `
start:	bge	t0, t1, start
	blt	t0, t1, start
	bgt	t0, t1, start
	ble	t0, t1, start
	bltu	t0, t1, start
`)
	ins := decodeAll(t, p)
	if len(ins) != 10 {
		t.Fatalf("got %d words", len(ins))
	}
	// bge: slt at,t0,t1; beq at,zero,start (branch at word 1, target 0 -> off -2)
	if ins[0].Op != isa.OpSLT || ins[0].Rd != isa.RegAT {
		t.Errorf("bge cmp = %+v", ins[0])
	}
	if ins[1].Op != isa.OpBEQ || ins[1].Rs != isa.RegAT || ins[1].Imm != -2 {
		t.Errorf("bge br = %+v", ins[1])
	}
	if ins[3].Op != isa.OpBNE || ins[3].Imm != -4 {
		t.Errorf("blt br = %+v", ins[3])
	}
	// bgt swaps operands.
	if ins[4].Rs != isa.RegT0+1 || ins[4].Rt != isa.RegT0 {
		t.Errorf("bgt cmp = %+v", ins[4])
	}
	if ins[8].Op != isa.OpSLTU {
		t.Errorf("bltu cmp = %+v", ins[8])
	}
}

func TestJumps(t *testing.T) {
	p := mustAssemble(t, `
main:	jal	sub
	j	main
sub:	jalr	t9
	jr	ra
`)
	ins := decodeAll(t, p)
	if ins[0].Op != isa.OpJAL || ins[0].Target != isa.DefaultTextBase+8 {
		t.Errorf("jal = %+v", ins[0])
	}
	if ins[1].Op != isa.OpJ || ins[1].Target != isa.DefaultTextBase {
		t.Errorf("j = %+v", ins[1])
	}
	if ins[2].Op != isa.OpJALR || ins[2].Rd != isa.RegRA || ins[2].Rs != isa.RegT9 {
		t.Errorf("jalr = %+v", ins[2])
	}
}

func TestDataDirectives(t *testing.T) {
	p := mustAssemble(t, `
	.data
a:	.word	0x11223344
b:	.half	0x5566, 1
c:	.byte	7, 'A'
s:	.asciiz	"hi\n"
	.align	2
d:	.word	-1
e:	.space	8
f:	.word	b
`)
	if p.Symbols["a"] != isa.DefaultDataBase {
		t.Errorf("a = 0x%x", p.Symbols["a"])
	}
	if p.Symbols["b"] != isa.DefaultDataBase+4 {
		t.Errorf("b = 0x%x", p.Symbols["b"])
	}
	if p.Symbols["c"] != isa.DefaultDataBase+8 {
		t.Errorf("c = 0x%x", p.Symbols["c"])
	}
	// Little-endian word.
	if p.Data[0] != 0x44 || p.Data[3] != 0x11 {
		t.Errorf("word bytes = %v", p.Data[:4])
	}
	if p.Data[8] != 7 || p.Data[9] != 'A' {
		t.Errorf("byte data = %v", p.Data[8:10])
	}
	if string(p.Data[10:13]) != "hi\n" || p.Data[13] != 0 {
		t.Errorf("asciiz = %q", p.Data[10:14])
	}
	// d is aligned to 4 after the 14-byte prefix -> offset 16.
	if p.Symbols["d"] != isa.DefaultDataBase+16 {
		t.Errorf("d = 0x%x", p.Symbols["d"])
	}
	if p.Symbols["e"] != isa.DefaultDataBase+20 {
		t.Errorf("e = 0x%x", p.Symbols["e"])
	}
	// f holds the address of b.
	off := p.Symbols["f"] - isa.DefaultDataBase
	got := uint32(p.Data[off]) | uint32(p.Data[off+1])<<8 | uint32(p.Data[off+2])<<16 | uint32(p.Data[off+3])<<24
	if got != p.Symbols["b"] {
		t.Errorf("f contents = 0x%x, want 0x%x", got, p.Symbols["b"])
	}
}

func TestEntryPoint(t *testing.T) {
	p := mustAssemble(t, `
helper:	jr	ra
main:	jal	helper
	syscall
`)
	if p.Entry != isa.DefaultTextBase+4 {
		t.Errorf("Entry = 0x%x, want main", p.Entry)
	}
}

func TestComments(t *testing.T) {
	p := mustAssemble(t, `
	# full line comment
	addiu	t0, t0, 1	# trailing
	addiu	t0, t0, 2	; alt comment
	.data
s:	.asciiz	"has # hash ; semi"
`)
	if len(p.Text) != 2 {
		t.Fatalf("text words = %d", len(p.Text))
	}
	if !strings.Contains(string(p.Data), "# hash ; semi") {
		t.Errorf("string mangled: %q", p.Data)
	}
}

// TestQuotedCharConstants checks that '#', ';', ',' and quotes inside
// character constants neither start a comment nor split operands.
func TestQuotedCharConstants(t *testing.T) {
	p := mustAssemble(t, `
	li	t0, '#'	# a real comment
	li	t1, ';'	; another
	li	t2, ','
	li	t3, '\''
	li	t4, '"'
	.data
b:	.byte	'#', 1, ';', ',', '\'', '"', 2
s:	.asciiz	"it's # here"
`)
	for i, want := range []int32{'#', ';', ',', '\'', '"'} {
		in, err := isa.Decode(p.Text[i])
		if err != nil {
			t.Fatal(err)
		}
		if in.Op != isa.OpADDIU || in.Imm != want {
			t.Errorf("word %d = %v, want addiu with imm %q", i, in, want)
		}
	}
	if len(p.Text) != 5 {
		t.Errorf("text words = %d, want 5", len(p.Text))
	}
	want := "#\x01;,'\"\x02it's # here\x00"
	if string(p.Data) != want {
		t.Errorf("data = %q, want %q", p.Data, want)
	}
}

func TestErrors(t *testing.T) {
	cases := map[string]string{
		"dup label":           "x:\nx:\n",
		"unknown mnemonic":    "\tfrobnicate t0, t1\n",
		"bad register":        "\taddu q0, t1, t2\n",
		"bad operand count":   "\taddu t0, t1\n",
		"undefined branch":    "\tbeqz t0, nowhere\n",
		"undefined symbol":    "\tla a0, nowhere\n",
		"imm overflow":        "\taddiu t0, t0, 70000\n",
		"data in text":        "\t.word 1\n",
		"instruction in data": "\t.data\n\taddu t0, t1, t2\n",
		"unknown directive":   "\t.bogus 3\n",
		"bad string":          "\t.data\n\t.asciiz foo\n",
	}
	for name, src := range cases {
		if _, err := Assemble(src); err == nil {
			t.Errorf("%s: expected error for %q", name, src)
		}
	}
}

func TestBranchRangeError(t *testing.T) {
	var b strings.Builder
	b.WriteString("main:\tbeqz t0, far\n")
	for i := 0; i < 0x8001; i++ {
		b.WriteString("\tnop\n")
	}
	b.WriteString("far:\tjr ra\n")
	if _, err := Assemble(b.String()); err == nil {
		t.Fatal("expected branch-out-of-range error")
	}
}

func TestErrorHasLineNumber(t *testing.T) {
	_, err := Assemble("\tnop\n\tnop\n\tfrob t0\n")
	if err == nil {
		t.Fatal("expected error")
	}
	ae, ok := err.(*Error)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if ae.Line != 3 {
		t.Errorf("line = %d, want 3", ae.Line)
	}
}

// Property: assemble -> disassemble -> reassemble yields identical text
// for a representative program (labels become addresses, so we compare
// encoded words only after round one).
func TestDisassembleListing(t *testing.T) {
	p := mustAssemble(t, `
main:	li	t0, 10
loop:	addiu	t0, t0, -1
	bnez	t0, loop
	jal	fin
	j	main
fin:	jr	ra
`)
	lst := Disassemble(p)
	for _, want := range []string{"main:", "loop:", "fin:", "bne t0, zero, -2 <loop>", "jal fin", "jr ra"} {
		if !strings.Contains(lst, want) {
			t.Errorf("listing missing %q:\n%s", want, lst)
		}
	}
}

func TestAssembleWithCustomBases(t *testing.T) {
	p, err := AssembleWith("main:\tjr ra\n\t.data\nx:\t.word 5\n", Options{TextBase: 0x1000, DataBase: 0x2000})
	if err != nil {
		t.Fatal(err)
	}
	if p.TextBase != 0x1000 || p.Entry != 0x1000 || p.Symbols["x"] != 0x2000 {
		t.Fatalf("bases wrong: %+v", p)
	}
}

func TestLabelOnOwnLine(t *testing.T) {
	p := mustAssemble(t, "main:\n\tnop\nend:\n")
	if p.Symbols["main"] != isa.DefaultTextBase {
		t.Errorf("main = 0x%x", p.Symbols["main"])
	}
	if p.Symbols["end"] != isa.DefaultTextBase+4 {
		t.Errorf("end = 0x%x", p.Symbols["end"])
	}
}

func TestMultipleLabelsSameLine(t *testing.T) {
	p := mustAssemble(t, "a: b:\tnop\n")
	if p.Symbols["a"] != p.Symbols["b"] {
		t.Errorf("a=0x%x b=0x%x", p.Symbols["a"], p.Symbols["b"])
	}
}
