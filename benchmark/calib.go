package main

import (
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"time"
)

// Host-speed calibration. The speed a shared host gives the benchmark
// drifts over minutes, and the drift moves the fastest time of every
// operation in a run together: one run's floors all sit 10-20% above
// another's. So every run also times three fixed kernels between its
// passes and scales its timings by the kernels' reference time over
// their fastest measured time, which makes each reported time the
// time at the reference host speed. The kernels live in this file and
// the Go standard library and call nothing in the repository, so no
// change to the program under test moves them.
//
// The kernels cover the kinds of host work the workloads do: an
// interpreter loop with data-dependent branches (the simulator), map
// lookups over scattered pages (the simulator's memory and caches), and
// JSON decoding (the daemon's HTTP/JSON path).

// calRef is each kernel's fastest time in ms on the reference host, a
// quiet 2-vCPU Intel Xeon VM (Go 1.24, linux/amd64).
var calRef = [3]float64{3.05, 6.55, 6.20}

var calKernels = [3]func(){calInterp, calMaps, calJSON}

// calibrator keeps the fastest time of each kernel seen in a run.
type calibrator struct {
	floor [3]float64 // ms; 0 until sampled
}

// sample times each kernel once.
func (c *calibrator) sample() {
	for k, f := range calKernels {
		start := time.Now()
		f()
		ms := millis(time.Since(start))
		if c.floor[k] == 0 || ms < c.floor[k] {
			c.floor[k] = ms
		}
	}
}

// sampleEach samples the kernels once on each CPU pn rotates over.
func (c *calibrator) sampleEach(pn *pinner) {
	for j := 0; j < pn.size(); j++ {
		pn.pin(j)
		c.sample()
	}
}

// speed is the host's speed relative to the reference: the geometric
// mean over the kernels of reference time over fastest measured time.
// A host time multiplied by it is the time at the reference speed.
func (c *calibrator) speed() float64 {
	p := 1.0
	for k := range c.floor {
		p *= calRef[k] / c.floor[k]
	}
	return math.Cbrt(p)
}

const calWords = 1 << 16 // 256 KiB table

var (
	calTable = make([]uint32, calWords)
	calPages = func() map[uint32]*[1024]uint32 {
		m := make(map[uint32]*[1024]uint32, 256)
		for i := uint32(0); i < 256; i++ {
			m[i] = new([1024]uint32)
		}
		return m
	}()
	calDoc  = calDocument(4, 1)
	calSink uint32 // keeps the kernels' results live
)

type calOp struct{ kind, a, b, c uint8 }

// calProg is 64 register-machine operations from a fixed xorshift
// sequence.
var calProg = func() []calOp {
	x := uint32(2463534242)
	next := func() uint8 {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		return uint8(x)
	}
	p := make([]calOp, 64)
	for i := range p {
		p[i] = calOp{next() % 6, next() % 16, next() % 16, next() % 16}
	}
	return p
}()

// calInterp interprets calProg for 2^20 steps over a cleared table.
func calInterp() {
	clear(calTable)
	var r [16]uint32
	for i := range r {
		r[i] = uint32(i)*2654435761 + 1
	}
	pc := 0
	for i := 0; i < 1<<20; i++ {
		op := calProg[pc]
		pc = (pc + 1) & 63
		switch op.kind {
		case 0:
			r[op.a] = r[op.b] + r[op.c]
		case 1:
			r[op.a] = r[op.b] ^ (r[op.c]>>3)*2654435761
		case 2:
			r[op.a] = calTable[(r[op.b]+uint32(i))&(calWords-1)] + 1
		case 3:
			calTable[r[op.b]&(calWords-1)] = r[op.a]
		case 4:
			if r[op.a]&1 != 0 {
				pc = int(r[op.b] & 63)
			}
		case 5:
			r[op.a] = r[op.b]<<(r[op.c]&7) | 1
		}
	}
	calSink += r[0]
}

// calMaps makes 2^19 pseudo-random reads and writes through a map of
// 256 pages of 4 KiB.
func calMaps() {
	x := uint32(88172645)
	var s uint32
	for i := 0; i < 1<<19; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		p := calPages[x&255]
		if x&0x100 != 0 {
			p[x>>22] += s
		} else {
			s += p[(x>>12)&1023]
		}
	}
	calSink += s
}

type calNode struct {
	Name  string            `json:"name"`
	Vals  []int             `json:"vals"`
	Attrs map[string]string `json:"attrs"`
	Kids  []calNode         `json:"kids"`
}

// calDocument encodes a tree of nodes with four children each, depth
// levels below the root.
func calDocument(depth, seed int) []byte {
	var build func(d, seed int) calNode
	build = func(d, seed int) calNode {
		n := calNode{Name: "n" + strconv.Itoa(seed), Attrs: map[string]string{}}
		for i := 0; i < 8; i++ {
			n.Vals = append(n.Vals, seed*31+i)
			n.Attrs["k"+strconv.Itoa(i)] = strings.Repeat("v", i+seed%5)
		}
		if d > 0 {
			for i := 0; i < 4; i++ {
				n.Kids = append(n.Kids, build(d-1, seed*4+i))
			}
		}
		return n
	}
	b, err := json.Marshal(build(depth, seed))
	if err != nil {
		panic(err)
	}
	return b
}

// calJSON decodes calDoc four times.
func calJSON() {
	for i := 0; i < 4; i++ {
		var n calNode
		if err := json.Unmarshal(calDoc, &n); err != nil {
			panic(err)
		}
		calSink += uint32(len(n.Kids))
	}
}
