package isa

import "fmt"

// Default segment placement, mirroring the MIPS memory map the paper's
// SimpleScalar toolchain used.
const (
	DefaultTextBase  uint32 = 0x0040_0000
	DefaultDataBase  uint32 = 0x1000_0000
	DefaultStackTop  uint32 = 0x7fff_fff0
	DefaultGPOffset  uint32 = 0x8000 // gp points DataBase+0x8000 by convention
	InstructionBytes        = 4
)

// Program is a loadable executable image: a text segment of encoded
// instruction words, an initialized data segment, and a symbol table.
// It is produced by the assembler (and, indirectly, by the MiniC
// compiler) and consumed by the CPU simulator, the profiler, and the
// ASBR BIT builder.
type Program struct {
	TextBase uint32            // byte address of Text[0]
	Text     []uint32          // encoded instruction words
	DataBase uint32            // byte address of Data[0]
	Data     []byte            // initialized data image
	Entry    uint32            // initial PC
	Symbols  map[string]uint32 // label -> byte address (text and data)
}

// TextEnd returns the byte address one past the last instruction.
func (p *Program) TextEnd() uint32 {
	return p.TextBase + uint32(len(p.Text))*InstructionBytes
}

// InText reports whether addr lies inside the text segment.
func (p *Program) InText(addr uint32) bool {
	return addr >= p.TextBase && addr < p.TextEnd()
}

// WordAt returns the instruction word at byte address addr.
func (p *Program) WordAt(addr uint32) (uint32, error) {
	if !p.InText(addr) || addr%4 != 0 {
		return 0, fmt.Errorf("isa: address 0x%08x not a valid text word", addr)
	}
	return p.Text[(addr-p.TextBase)/4], nil
}

// InstAt decodes the instruction at byte address addr.
func (p *Program) InstAt(addr uint32) (Inst, error) {
	w, err := p.WordAt(addr)
	if err != nil {
		return Inst{}, err
	}
	return Decode(w)
}

// Symbol returns the address of a label, reporting whether it exists.
func (p *Program) Symbol(name string) (uint32, bool) {
	a, ok := p.Symbols[name]
	return a, ok
}
