//go:build amd64

package perf

import (
	"runtime"
	"strings"
	"unsafe"
)

// fpCallers fills pcs with the return addresses of its caller's
// frame-pointer chain, innermost first, and returns the count
// (fpwalk_amd64.s).
//
//go:noescape
func fpCallers(pcs []uintptr) int

// maxKeyFrames bounds the physical frames a cache key may hold; calls
// whose skip+max needs more bypass the cache.
const maxKeyFrames = 64

// stackCacheEntries bounds one cache. Past it, misses fall back to an
// uncached unwind, so deep or varied recursion cannot grow memory.
const stackCacheEntries = 1024

// StackCache memoizes Callstack by the caller's frame-pointer chain,
// so a repeated call path costs a frame-pointer walk and a map lookup
// instead of a PC-table unwind. Results are exactly what Callstack
// returns; see DESIGN.md "Join-stack capture" for the argument.
//
// A StackCache belongs to one goroutine at a time (the owning thread
// of a trace buffer). The zero value is ready to use. Returned slices
// are shared with later hits and must not be modified.
type StackCache struct {
	m map[string][]uintptr
}

// Callstack returns the same PCs as Callstack(skip, max) called from
// the caller's position. It must keep its own physical frame: the
// walk starts at its frame pointer.
//
//go:noinline
func (c *StackCache) Callstack(skip, max int) []uintptr {
	if max <= 0 {
		max = 64
	}
	k := skip + max + 1
	if k > maxKeyFrames {
		return Callstack(skip+1, max)
	}
	// The key is skip, max and the chain. chain[0] is the return
	// address into our caller; Callers(2) below starts at the same frame.
	var key [2 + maxKeyFrames]uintptr
	key[0], key[1] = uintptr(skip), uintptr(max)
	chain := key[2 : 2+k]
	n := fpCallers(chain)
	ks := unsafe.String((*byte)(unsafe.Pointer(&key[0])), (2+n)*int(unsafe.Sizeof(key[0])))
	if pcs, ok := c.m[ks]; ok {
		return pcs
	}
	full := make([]uintptr, skip+max)
	m := runtime.Callers(2, full)
	pcs := full[min(skip, m):m:m]
	if len(c.m) < stackCacheEntries && chainDetermines(chain[:n], n < k, full[:m], m == len(full)) {
		if c.m == nil {
			c.m = make(map[string][]uintptr)
		}
		c.m[strings.Clone(ks)] = pcs
	}
	return pcs
}

// chainDetermines reports whether the physical chain raw fixes the
// logical stack Callers produced from the same frames. That holds
// when raw is the whole chain (ended), or when Callers stopped because
// its buffer was full (truncated) at a frame inside raw. Each physical
// frame's outermost logical entry is its return address; inlined
// entries never equal one, and elided wrapper frames have none, so
// matching the logical entries in order against raw finds the frame
// the last entry came from.
func chainDetermines(raw []uintptr, ended bool, logical []uintptr, truncated bool) bool {
	if ended {
		return true
	}
	if !truncated {
		return false
	}
	i, inRaw := 0, false
	for _, pc := range logical {
		inRaw = false
		for j := i; j < len(raw); j++ {
			if raw[j] == pc {
				i, inRaw = j+1, true
				break
			}
		}
	}
	return inRaw
}
