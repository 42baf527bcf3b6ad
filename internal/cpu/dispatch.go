package cpu

import (
	"asbr/internal/isa"
)

// Dense opcode dispatch: execute indexes execTable by the decoded
// opcode instead of re-walking a switch per instruction. The table is
// built once at init, has an entry for every opcode, and is shared by
// every engine and by the fused loop.

// execFn computes the functional result of one instruction in EX. rs
// and rt are the forwarded source operand values. Operands arrive and
// results leave in registers — no pipeline-slot pointer crosses the
// indirect call, so stack-allocated slots never escape to the heap.
// Entries that set only some of the three results return zeroes for
// the rest; the pipeline never reads a result the opcode does not
// produce.
type execFn func(c *CPU, d *DecodedInst, pc uint32, rs, rt int32) (result int32, memAddr uint32, storeVal int32)

var execTable [isa.NumOps]execFn

// execute computes the results of the instruction in EX via the
// dispatch table: the value to write back, the memory or jump-target
// address, and the store data or branch operands. Operands come from
// the register file, except that w, the instruction that just moved
// MEM->WB, forwards its result (anything older committed during this
// cycle's WB). The zero register is never written, so it reads as zero
// without a check.
func (c *CPU) execute(s, w *slot) {
	d := s.d
	in := &d.In
	rs, rt := c.regs[in.Rs], c.regs[in.Rt]
	if w.valid && w.d.HasDest {
		if w.d.Dest == in.Rs {
			rs = w.result
		}
		if w.d.Dest == in.Rt {
			rt = w.result
		}
	}
	s.result, s.memAddr, s.storeVal = execTable[in.Op](c, d, s.pc, rs, rt)
}

func init() {
	t := &execTable
	t[isa.OpADD] = func(c *CPU, d *DecodedInst, pc uint32, rs, rt int32) (int32, uint32, int32) { return rs + rt, 0, 0 }
	t[isa.OpADDU] = t[isa.OpADD]
	t[isa.OpSUB] = func(c *CPU, d *DecodedInst, pc uint32, rs, rt int32) (int32, uint32, int32) { return rs - rt, 0, 0 }
	t[isa.OpSUBU] = t[isa.OpSUB]
	t[isa.OpAND] = func(c *CPU, d *DecodedInst, pc uint32, rs, rt int32) (int32, uint32, int32) { return rs & rt, 0, 0 }
	t[isa.OpOR] = func(c *CPU, d *DecodedInst, pc uint32, rs, rt int32) (int32, uint32, int32) { return rs | rt, 0, 0 }
	t[isa.OpXOR] = func(c *CPU, d *DecodedInst, pc uint32, rs, rt int32) (int32, uint32, int32) { return rs ^ rt, 0, 0 }
	t[isa.OpNOR] = func(c *CPU, d *DecodedInst, pc uint32, rs, rt int32) (int32, uint32, int32) { return ^(rs | rt), 0, 0 }
	t[isa.OpSLT] = func(c *CPU, d *DecodedInst, pc uint32, rs, rt int32) (int32, uint32, int32) {
		return b2i(rs < rt), 0, 0
	}
	t[isa.OpSLTU] = func(c *CPU, d *DecodedInst, pc uint32, rs, rt int32) (int32, uint32, int32) {
		return b2i(uint32(rs) < uint32(rt)), 0, 0
	}

	t[isa.OpSLL] = func(c *CPU, d *DecodedInst, pc uint32, rs, rt int32) (int32, uint32, int32) {
		return rt << uint(d.In.Imm&31), 0, 0
	}
	t[isa.OpSRL] = func(c *CPU, d *DecodedInst, pc uint32, rs, rt int32) (int32, uint32, int32) {
		return int32(uint32(rt) >> uint(d.In.Imm&31)), 0, 0
	}
	t[isa.OpSRA] = func(c *CPU, d *DecodedInst, pc uint32, rs, rt int32) (int32, uint32, int32) {
		return rt >> uint(d.In.Imm&31), 0, 0
	}
	t[isa.OpSLLV] = func(c *CPU, d *DecodedInst, pc uint32, rs, rt int32) (int32, uint32, int32) {
		return rt << uint(rs&31), 0, 0
	}
	t[isa.OpSRLV] = func(c *CPU, d *DecodedInst, pc uint32, rs, rt int32) (int32, uint32, int32) {
		return int32(uint32(rt) >> uint(rs&31)), 0, 0
	}
	t[isa.OpSRAV] = func(c *CPU, d *DecodedInst, pc uint32, rs, rt int32) (int32, uint32, int32) {
		return rt >> uint(rs&31), 0, 0
	}

	t[isa.OpMULT] = func(c *CPU, d *DecodedInst, pc uint32, rs, rt int32) (int32, uint32, int32) {
		p := int64(rs) * int64(rt)
		c.lo, c.hi = int32(p), int32(p>>32)
		return 0, 0, 0
	}
	t[isa.OpMULTU] = func(c *CPU, d *DecodedInst, pc uint32, rs, rt int32) (int32, uint32, int32) {
		p := uint64(uint32(rs)) * uint64(uint32(rt))
		c.lo, c.hi = int32(uint32(p)), int32(uint32(p>>32))
		return 0, 0, 0
	}
	t[isa.OpDIV] = func(c *CPU, d *DecodedInst, pc uint32, rs, rt int32) (int32, uint32, int32) {
		if rt == 0 {
			c.fail(ErrDivideByZero, pc, "divide by zero")
			return 0, 0, 0
		}
		c.lo, c.hi = rs/rt, rs%rt
		return 0, 0, 0
	}
	t[isa.OpDIVU] = func(c *CPU, d *DecodedInst, pc uint32, rs, rt int32) (int32, uint32, int32) {
		if rt == 0 {
			c.fail(ErrDivideByZero, pc, "divide by zero (divu)")
			return 0, 0, 0
		}
		c.lo = int32(uint32(rs) / uint32(rt))
		c.hi = int32(uint32(rs) % uint32(rt))
		return 0, 0, 0
	}
	t[isa.OpMFHI] = func(c *CPU, d *DecodedInst, pc uint32, rs, rt int32) (int32, uint32, int32) { return c.hi, 0, 0 }
	t[isa.OpMFLO] = func(c *CPU, d *DecodedInst, pc uint32, rs, rt int32) (int32, uint32, int32) { return c.lo, 0, 0 }
	t[isa.OpMTHI] = func(c *CPU, d *DecodedInst, pc uint32, rs, rt int32) (int32, uint32, int32) {
		c.hi = rs
		return 0, 0, 0
	}
	t[isa.OpMTLO] = func(c *CPU, d *DecodedInst, pc uint32, rs, rt int32) (int32, uint32, int32) {
		c.lo = rs
		return 0, 0, 0
	}

	t[isa.OpADDI] = func(c *CPU, d *DecodedInst, pc uint32, rs, rt int32) (int32, uint32, int32) {
		return rs + d.In.Imm, 0, 0
	}
	t[isa.OpADDIU] = t[isa.OpADDI]
	t[isa.OpSLTI] = func(c *CPU, d *DecodedInst, pc uint32, rs, rt int32) (int32, uint32, int32) {
		return b2i(rs < d.In.Imm), 0, 0
	}
	t[isa.OpSLTIU] = func(c *CPU, d *DecodedInst, pc uint32, rs, rt int32) (int32, uint32, int32) {
		return b2i(uint32(rs) < uint32(d.In.Imm)), 0, 0
	}
	t[isa.OpANDI] = func(c *CPU, d *DecodedInst, pc uint32, rs, rt int32) (int32, uint32, int32) {
		return rs & d.In.Imm, 0, 0
	}
	t[isa.OpORI] = func(c *CPU, d *DecodedInst, pc uint32, rs, rt int32) (int32, uint32, int32) {
		return rs | d.In.Imm, 0, 0
	}
	t[isa.OpXORI] = func(c *CPU, d *DecodedInst, pc uint32, rs, rt int32) (int32, uint32, int32) {
		return rs ^ d.In.Imm, 0, 0
	}
	t[isa.OpLUI] = func(c *CPU, d *DecodedInst, pc uint32, rs, rt int32) (int32, uint32, int32) {
		return d.In.Imm << 16, 0, 0
	}

	load := func(c *CPU, d *DecodedInst, pc uint32, rs, rt int32) (int32, uint32, int32) {
		return 0, uint32(rs + d.In.Imm), 0
	}
	t[isa.OpLB], t[isa.OpLBU], t[isa.OpLH], t[isa.OpLHU], t[isa.OpLW] = load, load, load, load, load
	store := func(c *CPU, d *DecodedInst, pc uint32, rs, rt int32) (int32, uint32, int32) {
		return 0, uint32(rs + d.In.Imm), rt
	}
	t[isa.OpSB], t[isa.OpSH], t[isa.OpSW] = store, store, store

	t[isa.OpJAL] = func(c *CPU, d *DecodedInst, pc uint32, rs, rt int32) (int32, uint32, int32) {
		return int32(pc + 4), 0, 0
	}
	// jr and jalr carry their target in memAddr for the EX redirect.
	t[isa.OpJR] = func(c *CPU, d *DecodedInst, pc uint32, rs, rt int32) (int32, uint32, int32) {
		return 0, uint32(rs), 0
	}
	t[isa.OpJALR] = func(c *CPU, d *DecodedInst, pc uint32, rs, rt int32) (int32, uint32, int32) {
		return int32(pc + 4), uint32(rs), 0
	}
	// Conditional branches latch their operands for resolveCond: the
	// condition register in result, rt in storeVal.
	branch := func(c *CPU, d *DecodedInst, pc uint32, rs, rt int32) (int32, uint32, int32) {
		return rs, 0, rt
	}
	t[isa.OpBEQ], t[isa.OpBNE], t[isa.OpBLEZ] = branch, branch, branch
	t[isa.OpBGTZ], t[isa.OpBLTZ], t[isa.OpBGEZ] = branch, branch, branch
	// The rest (j, syscall, break, bitsw, and the invalid opcode, which
	// faults before EX) compute nothing in EX: their effects happen in
	// doID and doWB.
	for op := range t {
		if t[op] == nil {
			t[op] = func(c *CPU, d *DecodedInst, pc uint32, rs, rt int32) (int32, uint32, int32) { return 0, 0, 0 }
		}
	}
}
