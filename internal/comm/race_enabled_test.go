//go:build race

package comm

// raceEnabled gates allocation-count assertions: the race detector's
// instrumentation itself allocates, so allocs/op is not meaningful there.
const raceEnabled = true
