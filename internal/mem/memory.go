// Package mem models the simulated memory hierarchy: a sparse flat
// main memory plus configurable set-associative caches, matching the
// paper's evaluation platform (8KB instruction cache, 8KB data cache
// in front of a flat DRAM).
//
// All addresses are 32-bit byte addresses; multi-byte accesses are
// little-endian. Loads and stores report the number of cycles they
// cost, which the pipeline model turns into stalls.
package mem

import (
	"bytes"
	"fmt"
)

const (
	pageBits = 12 // 4 KiB pages
	pageMask = 1<<pageBits - 1
)

// Memory is a sparse, paged flat memory. The zero value is ready to use.
//
// A one-entry page cache front-ends the page map: guest memory traffic
// is heavily page-local, so the common access touches no map at all.
// The cache is plain acceleration — it is filled only from the map, so
// the visible contents are identical with or without it.
type Memory struct {
	pages    map[uint32]*[1 << pageBits]byte
	lastPN   uint32
	lastPage *[1 << pageBits]byte
}

// NewMemory returns an empty memory.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint32]*[1 << pageBits]byte)}
}

func (m *Memory) page(addr uint32, create bool) *[1 << pageBits]byte {
	pn := addr >> pageBits
	if p := m.lastPage; p != nil && m.lastPN == pn {
		return p
	}
	p := m.pages[pn]
	if p == nil && create {
		if m.pages == nil {
			m.pages = make(map[uint32]*[1 << pageBits]byte)
		}
		p = new([1 << pageBits]byte)
		m.pages[pn] = p
	}
	if p != nil {
		m.lastPN, m.lastPage = pn, p
	}
	return p
}

// LoadByte returns the byte at addr (0 for untouched memory).
func (m *Memory) LoadByte(addr uint32) byte {
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	return p[addr&pageMask]
}

// StoreByte stores one byte at addr.
func (m *Memory) StoreByte(addr uint32, v byte) {
	m.page(addr, true)[addr&pageMask] = v
}

// LoadWord returns the little-endian 32-bit word at addr. The address
// need not be aligned; the pipeline enforces alignment separately.
func (m *Memory) LoadWord(addr uint32) uint32 {
	if off := addr & pageMask; off <= pageMask-3 {
		p := m.page(addr, false)
		if p == nil {
			return 0
		}
		return uint32(p[off]) | uint32(p[off+1])<<8 |
			uint32(p[off+2])<<16 | uint32(p[off+3])<<24
	}
	// Page-crossing word: byte at a time.
	return uint32(m.LoadByte(addr)) |
		uint32(m.LoadByte(addr+1))<<8 |
		uint32(m.LoadByte(addr+2))<<16 |
		uint32(m.LoadByte(addr+3))<<24
}

// StoreWord stores a little-endian 32-bit word at addr.
func (m *Memory) StoreWord(addr uint32, v uint32) {
	if off := addr & pageMask; off <= pageMask-3 {
		p := m.page(addr, true)
		p[off] = byte(v)
		p[off+1] = byte(v >> 8)
		p[off+2] = byte(v >> 16)
		p[off+3] = byte(v >> 24)
		return
	}
	m.StoreByte(addr, byte(v))
	m.StoreByte(addr+1, byte(v>>8))
	m.StoreByte(addr+2, byte(v>>16))
	m.StoreByte(addr+3, byte(v>>24))
}

// LoadHalf returns the little-endian 16-bit halfword at addr.
func (m *Memory) LoadHalf(addr uint32) uint16 {
	if off := addr & pageMask; off <= pageMask-1 {
		p := m.page(addr, false)
		if p == nil {
			return 0
		}
		return uint16(p[off]) | uint16(p[off+1])<<8
	}
	return uint16(m.LoadByte(addr)) | uint16(m.LoadByte(addr+1))<<8
}

// StoreHalf stores a little-endian 16-bit halfword at addr.
func (m *Memory) StoreHalf(addr uint32, v uint16) {
	if off := addr & pageMask; off <= pageMask-1 {
		p := m.page(addr, true)
		p[off] = byte(v)
		p[off+1] = byte(v >> 8)
		return
	}
	m.StoreByte(addr, byte(v))
	m.StoreByte(addr+1, byte(v>>8))
}

// zeroPage is what an absent page reads as.
var zeroPage [1 << pageBits]byte

// StoreBytes copies a byte image to consecutive addresses starting at
// addr, a page at a time. A part of the image that is all zero and
// falls on an absent page is skipped: the absent page already reads as
// zero, so only the pages that hold nonzero bytes are made. On a page
// that exists every byte is written.
func (m *Memory) StoreBytes(addr uint32, data []byte) {
	for len(data) > 0 {
		n := min(len(data), 1<<pageBits-int(addr&pageMask))
		p := m.page(addr, false)
		if p == nil && !bytes.Equal(data[:n], zeroPage[:n]) {
			p = m.page(addr, true)
		}
		if p != nil {
			copy(p[addr&pageMask:], data[:n])
		}
		data = data[n:]
		addr += uint32(n)
	}
}

// LoadBytes copies n bytes starting at addr, a page at a time.
func (m *Memory) LoadBytes(addr uint32, n int) []byte {
	out := make([]byte, n)
	rest := out
	for len(rest) > 0 {
		p := m.page(addr, false)
		if p == nil {
			// Untouched page reads as zeros; skip to the next page.
			k := int(1<<pageBits - addr&pageMask)
			if k > len(rest) {
				k = len(rest)
			}
			for i := 0; i < k; i++ {
				rest[i] = 0
			}
			rest = rest[k:]
			addr += uint32(k)
			continue
		}
		k := copy(rest, p[addr&pageMask:])
		rest = rest[k:]
		addr += uint32(k)
	}
	return out
}

// Footprint returns the number of touched pages, a debugging aid.
func (m *Memory) Footprint() int { return len(m.pages) }

// String summarizes the touched footprint.
func (m *Memory) String() string {
	return fmt.Sprintf("mem{%d pages}", len(m.pages))
}
