package core

import (
	"fmt"

	"asbr/internal/isa"
)

// This file is the state-mutation surface a mutation policy
// (Engine.SetMutator; the fault injector in internal/fault is one)
// uses to corrupt ASBR structures mid-run. The methods model
// single-event upsets in the BDT/BIT storage cells: they change stored
// state only, never the engine's statistics or the update protocol, so
// a corrupted run exercises exactly the hardware paths a real bit-flip
// would.

// FlipDir inverts the stored direction bit of condition c for register
// r, as a particle strike on one BDT direction cell would.
func (d *BDT) FlipDir(r isa.Reg, c isa.Cond) {
	d.dirs[r] ^= 1 << c
}

// SetCounter overwrites the validity counter of r. Forcing it to zero
// while a producer is in flight is the validity-skew fault: the guard
// the paper relies on for non-speculation reports "resolved" early.
func (d *BDT) SetCounter(r isa.Reg, v int32) {
	if r != isa.RegZero {
		d.count[r] = v
	}
}

// SetKnown overwrites the known flag of r (whether any value has been
// delivered since power-on).
func (d *BDT) SetKnown(r isa.Reg, known bool) {
	if r != isa.RegZero {
		d.known[r] = known
	}
}

// Known reports whether a value of r has been delivered since power-on.
func (d *BDT) Known(r isa.Reg) bool { return d.known[r] }

// Realias rekeys the entry stored under oldPC so it matches fetches of
// newPC instead: a BIT tag-cell corruption making a wrong PC hit. The
// entry body (BTA/BTI/BFI/Reg/Cond) is unchanged.
func (b *BIT) Realias(oldPC, newPC uint32) error {
	i, ok := b.byPC[oldPC]
	if !ok {
		return fmt.Errorf("core: BIT holds no entry for pc=0x%08x", oldPC)
	}
	if _, dup := b.byPC[newPC]; dup {
		return fmt.Errorf("core: BIT already holds pc=0x%08x", newPC)
	}
	delete(b.byPC, oldPC)
	b.byPC[newPC] = i
	b.entries[i].PC = newPC
	b.screen = [screenBits / 64]uint64{}
	for _, e := range b.entries {
		b.mark(e.PC)
	}
	return nil
}

// SetWords overwrites the cached target/fall-through instruction words
// and target address of the entry at pc: stale-BTI corruption, as if
// the table were loaded for a previous program version.
func (b *BIT) SetWords(pc, bta, bti, bfi uint32) error {
	i, ok := b.byPC[pc]
	if !ok {
		return fmt.Errorf("core: BIT holds no entry for pc=0x%08x", pc)
	}
	b.entries[i].BTA = bta
	b.entries[i].BTI = bti
	b.entries[i].BFI = bfi
	return nil
}

// ActiveEntry looks up pc in the active bank without touching the
// engine statistics — introspection for the fault injector, which must
// not perturb the fold counters it is probing.
func (e *Engine) ActiveEntry(pc uint32) (BITEntry, bool) {
	return e.banks[e.active].Lookup(pc)
}

// ActiveBIT returns the bank currently consulted at fetch.
func (e *Engine) ActiveBIT() *BIT { return e.banks[e.active] }
