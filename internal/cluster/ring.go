// Package cluster coordinates a fleet of asbr-serve worker daemons:
// it decomposes a sweep into (table, benchmark) cells, routes each
// cell to the worker that owns its canonical key on a consistent-hash
// ring, retries transient failures under the client's jittered
// backoff, rebalances key ranges away from workers that stop
// answering, and merges the per-cell tables back into the exact bytes
// a single-process sweep would have produced. Deterministic
// simulation failures are never retried — rerunning a deterministic
// simulator reproduces the same fault — so they surface as annotated
// cells with provenance instead of burning the retry budget.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
)

// defaultVNodes is the virtual-node fan-out per worker. 64 points per
// worker keeps the expected key-range imbalance under a few percent
// for the fleet sizes a simulation cluster realistically runs, while
// the ring stays small enough that rebuild cost is irrelevant.
const defaultVNodes = 64

// Ring is a consistent-hash ring over worker addresses. Each worker
// contributes VNodes points hashed from "addr#i"; a key is owned by
// the first live point clockwise from the key's own hash. Marking a
// worker dead does not remove its points — ownership lookups walk past
// them — so when it is revived every key it used to own returns to it,
// and only the keys that hashed to the dead worker ever move. All
// methods are safe for concurrent use.
type Ring struct {
	mu     sync.RWMutex
	vnodes int
	points []point         // sorted by hash
	alive  map[string]bool // worker -> liveness
}

type point struct {
	hash uint64
	node string
}

// NewRing builds a ring with vnodes virtual nodes per worker
// (0 = the default).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = defaultVNodes
	}
	return &Ring{vnodes: vnodes, alive: make(map[string]bool)}
}

// hashKey is FNV-1a 64 with a splitmix64 finalizer: stable across
// processes and platforms, so a coordinator restart reassigns nothing.
// Raw FNV-1a has weak avalanche in its low bits for strings that
// differ only near the end — exactly the shape of canonical sweep
// keys, which append the bench program key last — and without the
// finalizer sibling cells cluster onto one worker instead of
// spreading over the ring.
func hashKey(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s)) //nolint:errcheck // fnv never fails
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Add inserts a worker (idempotent) and marks it alive.
func (r *Ring) Add(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.alive[node]; ok {
		r.alive[node] = true
		return
	}
	r.alive[node] = true
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, point{hash: hashKey(fmt.Sprintf("%s#%d", node, i)), node: node})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// MarkDead stops routing keys to node. Unknown nodes are ignored.
func (r *Ring) MarkDead(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.alive[node]; ok {
		r.alive[node] = false
	}
}

// Revive restores a previously dead worker's key ranges.
func (r *Ring) Revive(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.alive[node]; ok {
		r.alive[node] = true
	}
}

// Alive reports node's current liveness.
func (r *Ring) Alive(node string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.alive[node]
}

// Nodes returns every worker ever added, sorted, with liveness.
func (r *Ring) Nodes() map[string]bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]bool, len(r.alive))
	for n, a := range r.alive {
		out[n] = a
	}
	return out
}

// Owner returns the live worker owning key, walking clockwise past
// dead workers' points. ok is false when no live worker remains.
func (r *Ring) Owner(key string) (node string, ok bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return "", false
	}
	h := hashKey(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	for i := 0; i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if r.alive[p.node] {
			return p.node, true
		}
	}
	return "", false
}
