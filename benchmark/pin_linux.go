//go:build linux

package main

import (
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity mask for up to 1024 CPUs.
type cpuMask [16]uint64

// pinner moves the whole process from one of its CPUs to the next. On
// a shared host each virtual CPU slows down and speeds up on its own,
// for seconds at a time. Running each operation on one CPU, and
// rotating operations over every CPU, lets an operation's fastest time
// come from whichever CPU was quiet, where a process spread over both
// is slowed by either and one left on a single CPU can spend a whole
// run on the slow one.
type pinner struct {
	orig cpuMask
	cpus []int
}

// newPinner records the process's CPU set. It returns nil, and pins
// nothing, when the set cannot be read or holds a single CPU.
func newPinner() *pinner {
	var p pinner
	if affinity(syscall.SYS_SCHED_GETAFFINITY, 0, &p.orig) != nil {
		return nil
	}
	for w, bits := range p.orig {
		for b := 0; b < 64; b++ {
			if bits&(1<<b) != 0 {
				p.cpus = append(p.cpus, 64*w+b)
			}
		}
	}
	if len(p.cpus) < 2 {
		return nil
	}
	return &p
}

// pin moves every thread of the process to the i-th CPU of the set,
// modulo its size. Callers pass the pass number plus the operation's
// index, so one operation meets every CPU over successive passes.
// Threads the runtime starts later inherit the mask.
func (p *pinner) pin(i int) {
	if p == nil {
		return
	}
	var m cpuMask
	c := p.cpus[i%len(p.cpus)]
	m[c/64] = 1 << (c % 64)
	p.setAll(&m)
}

// size is the number of CPUs pin rotates over (1 for a nil pinner).
func (p *pinner) size() int {
	if p == nil {
		return 1
	}
	return len(p.cpus)
}

// release gives every thread back the original CPU set.
func (p *pinner) release() {
	if p != nil {
		p.setAll(&p.orig)
	}
}

// setAll applies m to every thread; a thread that fails stays put.
func (p *pinner) setAll(m *cpuMask) {
	ents, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return
	}
	for _, e := range ents {
		if tid, err := strconv.Atoi(e.Name()); err == nil {
			affinity(syscall.SYS_SCHED_SETAFFINITY, tid, m)
		}
	}
}

func affinity(call uintptr, tid int, m *cpuMask) error {
	_, _, e := syscall.RawSyscall(call, uintptr(tid), unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	if e != 0 {
		return e
	}
	return nil
}
