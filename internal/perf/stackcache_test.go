package perf

import (
	"runtime"
	"slices"
	"strconv"
	"sync"
	"testing"
)

// atDepth calls f beneath d extra physical frames.
//
//go:noinline
func atDepth(d int, f func()) {
	if d == 0 {
		f()
		return
	}
	atDepth(d-1, f)
}

// captureN takes n cached stacks from one call site, then the uncached
// one from the next line.
//
//go:noinline
func captureN(c *StackCache, skip, max, n int) (hits [][]uintptr, want []uintptr) {
	for i := 0; i < n; i++ {
		hits = append(hits, c.Callstack(skip, max))
	}
	want = Callstack(skip, max)
	return hits, want
}

func funcName(pc uintptr) string {
	if f := runtime.FuncForPC(pc - 1); f != nil {
		return f.Name()
	}
	return ""
}

// sameStack checks a cached stack against Callstack's. With skip 0 the
// two differ only in the call-site frame's PC (they are captured from
// adjacent lines), so that frame is compared by function.
func sameStack(t *testing.T, skip int, got, want []uintptr) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("cached stack has %d frames, Callstack %d", len(got), len(want))
	}
	if skip == 0 && len(got) > 0 {
		if funcName(got[0]) != funcName(want[0]) {
			t.Fatalf("call-site frame %s, want %s", funcName(got[0]), funcName(want[0]))
		}
		got, want = got[1:], want[1:]
	}
	if !slices.Equal(got, want) {
		t.Fatalf("cached stack differs from Callstack:\n got %x\nwant %x", got, want)
	}
}

// checkCached takes stacks at the given depth, repeating each capture so
// later ones are cache hits, and compares them all against Callstack.
func checkCached(t *testing.T, c *StackCache, depth int) {
	t.Helper()
	for _, sm := range [][2]int{{0, 32}, {1, 32}, {2, 8}, {0, 3}, {0, 64}} {
		var hits [][]uintptr
		var want []uintptr
		atDepth(depth, func() { hits, want = captureN(c, sm[0], sm[1], 3) })
		for _, got := range hits {
			sameStack(t, sm[0], got, want)
		}
	}
}

func TestStackCacheMatchesCallers(t *testing.T) {
	for _, depth := range []int{0, 3, 12, 40} {
		var c StackCache
		checkCached(t, &c, depth)
	}
}

// goCapture runs on a goroutine started with arguments, so its stack
// carries a go-statement wrapper frame that Callers elides.
func goCapture(c *StackCache, depth int, out chan<- [2][]uintptr) {
	atDepth(depth, func() {
		hits, want := captureN(c, 0, 32, 2)
		out <- [2][]uintptr{hits[1], want}
	})
}

func TestStackCacheGoStatement(t *testing.T) {
	for _, depth := range []int{0, 3, 40} {
		var c StackCache
		out := make(chan [2][]uintptr)
		go goCapture(&c, depth, out)
		r := <-out
		sameStack(t, 0, r[0], r[1])
		if depth == 0 && funcName(r[1][len(r[1])-1]) != "runtime.goexit" {
			t.Errorf("outermost frame %s, want runtime.goexit", funcName(r[1][len(r[1])-1]))
		}
	}
}

// TestStackCacheConcurrent runs one cache per goroutine, the way trace
// buffers own theirs; under -race it checks that hits and misses touch
// only the owner's state.
func TestStackCacheConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(depth int) {
			defer wg.Done()
			var c StackCache
			for i := 0; i < 50; i++ {
				var hits [][]uintptr
				var want []uintptr
				atDepth(depth, func() { hits, want = captureN(&c, 1, 32, 2) })
				for _, got := range hits {
					if !slices.Equal(got, want) {
						errs <- "cached stack differs from Callstack"
						return
					}
				}
			}
		}(g * 5)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

var stackSink []uintptr

func BenchmarkCallstack(b *testing.B) {
	for _, depth := range []int{3, 12} {
		b.Run("runtime.Callers/depth="+strconv.Itoa(depth), func(b *testing.B) {
			atDepth(depth, func() {
				for i := 0; i < b.N; i++ {
					stackSink = Callstack(1, 32)
				}
			})
		})
		b.Run("StackCache/depth="+strconv.Itoa(depth), func(b *testing.B) {
			var c StackCache
			atDepth(depth, func() {
				for i := 0; i < b.N; i++ {
					stackSink = c.Callstack(1, 32)
				}
			})
		})
	}
}
