package cpu

import (
	"fmt"
	"io"
)

// Tracing: an optional per-cycle dump of pipeline occupancy, the
// classic textbook pipeline diagram rendered one row per cycle. It is
// a debugging aid for pipeline and ASBR behaviour (folded slots are
// marked), enabled by setting Config.Trace.

// traceCycle writes one row describing the stage occupancy at the end
// of the current cycle. Columns show the instruction that has
// completed IF/ID/EX/MEM this cycle (and will occupy the next stage).
func (c *CPU) traceCycle(w io.Writer, st *pipeState) {
	render := func(s *slot) string {
		if !s.valid {
			return "-"
		}
		mark := ""
		if s.folded {
			mark = "*" // injected by ASBR in place of a folded branch
		}
		if s.d == nil {
			return "<raw 0x00000000>" // poison: no word was fetched
		}
		if !s.d.OK {
			return fmt.Sprintf("%s<raw 0x%08x>", mark, s.d.Word)
		}
		return fmt.Sprintf("%s%08x %s", mark, s.pc, s.d.In)
	}
	// The line buffer is owned by the CPU and reused across cycles (and
	// runs), so tracing costs one Write per cycle, not one allocation.
	c.traceBuf = fmt.Appendf(c.traceBuf[:0], "cyc %6d | IF %-32s | EX %-32s | MEM %-32s | WB %-32s\n",
		c.stats.Cycles, render(&st.slots[st.idi]), render(&st.slots[st.exi]),
		render(&st.slots[st.mmi]), render(&st.slots[st.wbi]))
	w.Write(c.traceBuf)
}
