package runner

import (
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Cache is a keyed, once-guarded build cache: concurrent Gets of the
// same key block until the single builder finishes, then share its
// result. The zero value is ready to use.
//
// Results (including build errors) are cached permanently: a sweep's
// artifacts are deterministic functions of their key, so retrying a
// failed build would only repeat the failure. A build that panics is
// cached as a *PanicError (Index -1), so no caller of that key sees a
// zero value with a nil error. Build functions must not re-enter the
// cache with the same key (self-deadlock, like a recursive sync.Once).
type Cache[K comparable, V any] struct {
	// Transient, when set, reports a result that depends on more than
	// its key (a build cut short by its wall-clock budget, say): every
	// caller already waiting on that build gets it, and then the entry
	// is dropped, so the next Get of the key builds again. Set it
	// before the first Get.
	Transient func(V, error) bool

	mu     sync.Mutex
	m      map[K]*centry[V]
	builds atomic.Uint64
	gets   atomic.Uint64
}

type centry[V any] struct {
	once  sync.Once
	built sync.WaitGroup // done once val and err are set
	val   V
	err   error
}

// Get returns the cached value for key, invoking build exactly once
// per key across all concurrent callers.
func (c *Cache[K, V]) Get(key K, build func() (V, error)) (V, error) {
	c.gets.Add(1)
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[K]*centry[V])
	}
	e := c.m[key]
	if e == nil {
		e = new(centry[V])
		e.built.Add(1)
		c.m[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		c.builds.Add(1)
		defer e.built.Done()
		defer func() {
			if v := recover(); v != nil {
				var zero V
				e.val, e.err = zero, &PanicError{Index: -1, Value: v, Stack: debug.Stack()}
			}
			if c.Transient != nil && c.Transient(e.val, e.err) {
				c.mu.Lock()
				delete(c.m, key)
				c.mu.Unlock()
			}
		}()
		e.val, e.err = build()
	})
	return e.val, e.err
}

// Join returns the result of key's entry (built, building or failed),
// waiting for its build, and reports false when the key has none. It
// never builds: the serving layer lets a duplicate request join an
// entry this way without taking an admission-queue slot, even when a
// Transient result drops that entry meanwhile.
func (c *Cache[K, V]) Join(key K) (v V, ok bool, err error) {
	c.mu.Lock()
	e := c.m[key]
	c.mu.Unlock()
	if e == nil {
		return v, false, nil
	}
	c.gets.Add(1)
	e.built.Wait()
	return e.val, true, e.err
}

// Contains reports whether key already has an entry (built, building,
// or failed).
func (c *Cache[K, V]) Contains(key K) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.m[key]
	return ok
}

// Len returns the number of distinct keys seen.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Builds returns how many times a build function ran — the number of
// artifacts actually constructed, regardless of consumer count.
func (c *Cache[K, V]) Builds() uint64 { return c.builds.Load() }

// Gets returns the total number of Get calls.
func (c *Cache[K, V]) Gets() uint64 { return c.gets.Load() }
