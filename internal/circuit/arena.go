package circuit

// IntArena hands out small []int blocks carved from larger backing arrays,
// so hot loops that materialise one qubit slice per emitted gate (the
// remappers' launch paths) cost one allocation per few thousand gates
// instead of one per gate. Returned slices have capacity == length, so an
// append by the holder can never alias a neighbouring block. The arena
// itself never frees: blocks live as long as any slice taken from them,
// which matches the remapper lifecycle (everything is reachable from the
// Result).
type IntArena struct {
	// Slab is the backing-array size in ints; zero means 4096. A slab stays
	// reachable while any slice taken from it is, so a streaming consumer
	// that keeps only a window of gates live wants small slabs.
	Slab int
	buf  []int
}

// arenaBlock is the default backing-array size (elements).
const arenaBlock = 4096

// slabSize is the backing-array size for a request of n elements.
func slabSize(slab, n int) int {
	if slab <= 0 {
		slab = arenaBlock
	}
	return max(slab, n)
}

// Take returns a zeroed slice of length n from the arena.
func (a *IntArena) Take(n int) []int {
	if len(a.buf)+n > cap(a.buf) {
		a.buf = make([]int, 0, slabSize(a.Slab, n))
	}
	off := len(a.buf)
	a.buf = a.buf[:off+n]
	return a.buf[off : off+n : off+n]
}

// Reset drops the arena's claim on its current block. Slices already taken
// remain valid; subsequent Takes may reuse nothing — Reset only matters for
// callers recycling an arena across runs whose outputs are dead.
func (a *IntArena) Reset() {
	a.buf = nil
}

// FloatArena is IntArena over float64 blocks: batch storage for per-gate
// parameter slices when a whole circuit is copied at once (Schedule.Circuit),
// where one allocation per gate would dominate the copy.
type FloatArena struct {
	Slab int // backing-array size in float64s; zero means 4096
	buf  []float64
}

// Take returns a zeroed slice of length n from the arena.
func (a *FloatArena) Take(n int) []float64 {
	if len(a.buf)+n > cap(a.buf) {
		a.buf = make([]float64, 0, slabSize(a.Slab, n))
	}
	off := len(a.buf)
	a.buf = a.buf[:off+n]
	return a.buf[off : off+n : off+n]
}
