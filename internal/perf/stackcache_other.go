//go:build !amd64

package perf

// StackCache is the portable stand-in for the amd64 frame-pointer
// cache: every call unwinds with Callstack. The zero value is ready to
// use.
type StackCache struct{}

// Callstack returns Callstack(skip, max) as seen from the caller.
func (c *StackCache) Callstack(skip, max int) []uintptr {
	return Callstack(skip+1, max)
}
