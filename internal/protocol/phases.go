package protocol

import "iter"

// phaseCap bounds the per-run phase vocabulary. The protocols declare at
// most four names ("estimate", "candidates", "edges", "buckets"); the
// slack absorbs future phases without reintroducing a heap structure.
const phaseCap = 6

// Phases attributes bits to named protocol phases on fixed inline slots —
// the allocation-free replacement for the map[string]int64 every run used
// to build. The zero value is an empty, ready-to-use table; Result carries
// it by value, so attributing phases costs nothing on the heap.
type Phases struct {
	n     int
	names [phaseCap]string
	bits  [phaseCap]int64
}

// Set records bits for name, overwriting an existing slot or claiming the
// next free one. Slots keep insertion order, so iteration is deterministic.
func (p *Phases) Set(name string, bits int64) {
	for i := 0; i < p.n; i++ {
		if p.names[i] == name {
			p.bits[i] = bits
			return
		}
	}
	if p.n == phaseCap {
		panic("protocol: phase table overflow — raise phaseCap")
	}
	p.names[p.n] = name
	p.bits[p.n] = bits
	p.n++
}

// Get returns the bits recorded for name (0 when absent).
func (p *Phases) Get(name string) int64 {
	for i := 0; i < p.n; i++ {
		if p.names[i] == name {
			return p.bits[i]
		}
	}
	return 0
}

// All iterates the phases in insertion order.
func (p *Phases) All() iter.Seq2[string, int64] {
	return func(yield func(string, int64) bool) {
		for i := 0; i < p.n; i++ {
			if !yield(p.names[i], p.bits[i]) {
				return
			}
		}
	}
}
