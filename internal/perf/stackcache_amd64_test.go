//go:build amd64

package perf

import (
	"fmt"
	"testing"
)

// TestStackCacheHitsShareEntry pins that repeats of one call path are
// served from a single entry, at every depth including past the
// 32-frame truncation.
func TestStackCacheHitsShareEntry(t *testing.T) {
	for _, depth := range []int{0, 3, 12, 40} {
		var c StackCache
		var hits [][]uintptr
		atDepth(depth, func() { hits, _ = captureN(&c, 1, 32, 3) })
		if len(c.m) != 1 {
			t.Fatalf("depth %d: %d entries after one call path, want 1", depth, len(c.m))
		}
		for _, h := range hits[1:] {
			if &h[0] != &hits[0][0] {
				t.Fatalf("depth %d: repeat capture was not a cache hit", depth)
			}
		}
	}
}

// TestStackCacheFull pins the entry limit: once full, misses still
// return exact stacks but add nothing.
func TestStackCacheFull(t *testing.T) {
	c := StackCache{m: make(map[string][]uintptr)}
	for i := 0; len(c.m) < stackCacheEntries; i++ {
		c.m[fmt.Sprint("filler", i)] = nil
	}
	checkCached(t, &c, 3)
	if len(c.m) != stackCacheEntries {
		t.Fatalf("full cache grew to %d entries", len(c.m))
	}
}

func TestChainDetermines(t *testing.T) {
	raw := []uintptr{0x10, 0x20, 0x30, 0x40}
	cases := []struct {
		name      string
		ended     bool
		logical   []uintptr
		truncated bool
		want      bool
	}{
		{"whole chain", true, []uintptr{0x10, 0x20, 0x30, 0x40, 0x99}, false, true},
		{"ran past the key", false, []uintptr{0x10, 0x20, 0x30, 0x40, 0x99}, false, false},
		{"truncated inside the key", false, []uintptr{0x10, 0x15, 0x20}, true, true},
		{"elided wrapper inside the key", false, []uintptr{0x10, 0x30}, true, true},
		{"truncated on an inlined entry", false, []uintptr{0x10, 0x15}, true, false},
		{"truncated past the key", false, []uintptr{0x10, 0x20, 0x30, 0x40, 0x50}, true, false},
		// A recursive PC seen again deeper down must match in order.
		{"repeat PC past the key", false, []uintptr{0x30, 0x40, 0x30}, true, false},
	}
	for _, tc := range cases {
		if got := chainDetermines(raw, tc.ended, tc.logical, tc.truncated); got != tc.want {
			t.Errorf("%s: chainDetermines = %v, want %v", tc.name, got, tc.want)
		}
	}
}
