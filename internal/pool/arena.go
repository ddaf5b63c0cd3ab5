package pool

import (
	"math/bits"
	"sync"

	"abmm/internal/matrix"
)

// Allocator is the scratch-memory interface threaded through the
// execution layers (bilinear engine, basis transforms, core pipeline).
// It hands out float64 buffers, matrix headers, and small pointer
// slices, all of which the caller must return when done. Contents of
// anything obtained from an Allocator are unspecified; callers must
// fully overwrite what they read.
//
// Two implementations exist: Global, which draws float buffers from the
// process-wide size-class pools and lets the GC reclaim headers, and
// Arena, a workspace that retains everything it ever allocated so a
// warm execution performs no heap allocation at all.
type Allocator interface {
	// Floats returns a float64 slice of length n.
	Floats(n int) []float64
	// PutFloats returns a buffer obtained from Floats.
	PutFloats(buf []float64)
	// Mat returns an r-by-c matrix with contiguous pooled storage.
	Mat(r, c int) *matrix.Matrix
	// PutMat returns a matrix obtained from Mat (header and storage).
	PutMat(m *matrix.Matrix)
	// Hdr returns a blank matrix header (for views over existing
	// storage); the caller fills in its fields.
	Hdr() *matrix.Matrix
	// PutHdr returns a header obtained from Hdr. It never touches the
	// header's Data.
	PutHdr(m *matrix.Matrix)
	// Mats returns a pointer slice of length n. Elements are
	// unspecified; the caller must assign every element it reads.
	Mats(n int) []*matrix.Matrix
	// PutMats returns a slice obtained from Mats. Elements are not
	// released; the caller releases them individually first.
	PutMats(s []*matrix.Matrix)
}

// globalAlloc adapts the process-wide size-class pools to Allocator.
// Headers and pointer slices are ordinary garbage-collected
// allocations; only float buffers are recycled.
type globalAlloc struct{}

// Global is the default Allocator used by entry points that do not
// carry an arena (one-shot multiplies, the distributed runtime, tests).
var Global Allocator = globalAlloc{}

func (globalAlloc) Floats(n int) []float64  { return Get(n) }
func (globalAlloc) PutFloats(buf []float64) { Put(buf) }
func (globalAlloc) Hdr() *matrix.Matrix     { return &matrix.Matrix{} }
func (globalAlloc) PutHdr(m *matrix.Matrix) {}
func (globalAlloc) Mats(n int) []*matrix.Matrix {
	return make([]*matrix.Matrix, n)
}
func (globalAlloc) PutMats(s []*matrix.Matrix) {}

func (globalAlloc) Mat(r, c int) *matrix.Matrix {
	return matrix.FromSlice(r, c, Get(r*c))
}

func (globalAlloc) PutMat(m *matrix.Matrix) { Put(m.Data) }

// Arena is a reusable workspace for one multiplication execution. It
// keeps free lists of every buffer, header, and pointer slice it has
// handed out, so after the first (warming) execution of a fixed-shape
// plan, repeated executions allocate nothing. An Arena is safe for
// concurrent use (an engine that fans out allocates from its tasks), but
// it is designed to be owned by one execution at a time and pooled
// across executions by core.Plan.
type Arena struct {
	mu sync.Mutex
	// floats[c] holds free buffers with capacity exactly 1<<c.
	floats [64][][]float64
	// hdrs holds free matrix headers (also used as the backing for Mat).
	hdrs []*matrix.Matrix
	// mats[c] holds free pointer slices with capacity exactly 1<<c.
	mats [64][][]*matrix.Matrix
	// bytes is the total float64 storage ever allocated by this arena.
	bytes int64
	// reused/requested count float64 bytes served from a warm free list
	// and total float64 bytes handed out, over the arena's lifetime.
	reused    int64
	requested int64
	// live/liveHW track currently-outstanding float64 bytes and their
	// high-water mark; outstanding/classHW the same per size class in
	// buffer counts.
	live        int64
	liveHW      int64
	outstanding [64]int32
	classHW     [64]int32
}

// NewArena returns an empty workspace.
func NewArena() *Arena { return &Arena{} }

// Bytes reports the total float64 scratch (in bytes) this arena has
// allocated over its lifetime — in steady state, the plan's resident
// workspace footprint.
func (a *Arena) Bytes() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.bytes
}

// Counters is the scalar, allocation-free view of an arena's traffic;
// see Stats for the per-size-class breakdown.
type Counters struct {
	// AllocBytes is the lifetime float64 storage allocated (== Bytes).
	AllocBytes int64
	// RequestedBytes is the lifetime float64 scratch handed out;
	// ReusedBytes the portion served from warm free lists. Their
	// difference is AllocBytes.
	RequestedBytes int64
	ReusedBytes    int64
	// LiveBytes is the float64 scratch currently checked out;
	// HighWaterBytes its lifetime peak — the true simultaneous
	// workspace requirement, as opposed to AllocBytes which also counts
	// fragmentation across size classes.
	LiveBytes      int64
	HighWaterBytes int64
}

// Counters returns the arena's scalar traffic counters.
func (a *Arena) Counters() Counters {
	a.mu.Lock()
	defer a.mu.Unlock()
	return Counters{
		AllocBytes:     a.bytes,
		RequestedBytes: a.requested,
		ReusedBytes:    a.reused,
		LiveBytes:      a.live,
		HighWaterBytes: a.liveHW,
	}
}

// ClassStat is one size class's high-water mark.
type ClassStat struct {
	// Elems is the buffer capacity of the class in float64s (a power of
	// two); Bytes the corresponding storage per buffer.
	Elems int
	Bytes int64
	// HighWater is the peak number of simultaneously checked-out
	// buffers of this class; Free the buffers currently on the free
	// list.
	HighWater int
	Free      int
}

// Stats reports the scalar counters plus the per-size-class high-water
// marks (classes that never served a buffer are omitted).
func (a *Arena) Stats() (Counters, []ClassStat) {
	a.mu.Lock()
	defer a.mu.Unlock()
	c := Counters{
		AllocBytes:     a.bytes,
		RequestedBytes: a.requested,
		ReusedBytes:    a.reused,
		LiveBytes:      a.live,
		HighWaterBytes: a.liveHW,
	}
	var classes []ClassStat
	for cl, hw := range a.classHW {
		if hw == 0 {
			continue
		}
		classes = append(classes, ClassStat{
			Elems:     1 << cl,
			Bytes:     int64(8) << cl,
			HighWater: int(hw),
			Free:      len(a.floats[cl]),
		})
	}
	return c, classes
}

//abmm:hotpath
func (a *Arena) Floats(n int) []float64 {
	if n == 0 {
		return nil
	}
	class := bits.Len(uint(n - 1))
	size := int64(8) << class
	a.mu.Lock()
	a.requested += size
	a.live += size
	if a.live > a.liveHW {
		a.liveHW = a.live
	}
	a.outstanding[class]++
	if a.outstanding[class] > a.classHW[class] {
		a.classHW[class] = a.outstanding[class]
	}
	if l := len(a.floats[class]); l > 0 {
		buf := a.floats[class][l-1]
		a.floats[class] = a.floats[class][:l-1]
		a.reused += size
		a.mu.Unlock()
		return buf[:n]
	}
	a.bytes += size
	a.mu.Unlock()
	// Cold miss: the arena grows once per size class, then recycles.
	//abmm:allow hotpath-alloc
	return make([]float64, n, 1<<class)
}

//abmm:hotpath
func (a *Arena) PutFloats(buf []float64) {
	c := cap(buf)
	if c == 0 {
		return
	}
	class := bits.Len(uint(c)) - 1
	if 1<<class != c {
		return // not arena-shaped; let the GC have it
	}
	a.mu.Lock()
	// The free list reaches its high-water length during warmup and
	// then stops growing: every append after that reuses capacity.
	//abmm:allow hotpath-alloc
	a.floats[class] = append(a.floats[class], buf[:c])
	a.live -= int64(8) << class
	a.outstanding[class]--
	a.mu.Unlock()
}

//abmm:hotpath
func (a *Arena) Hdr() *matrix.Matrix {
	a.mu.Lock()
	if l := len(a.hdrs); l > 0 {
		h := a.hdrs[l-1]
		a.hdrs = a.hdrs[:l-1]
		a.mu.Unlock()
		return h
	}
	a.mu.Unlock()
	// Cold miss: headers are minted until the working set is covered,
	// then PutHdr recycles them forever.
	//abmm:allow hotpath-alloc
	return &matrix.Matrix{}
}

//abmm:hotpath
func (a *Arena) PutHdr(m *matrix.Matrix) {
	*m = matrix.Matrix{} // drop references so buffers are not pinned twice
	a.mu.Lock()
	// Warmup-bounded like the floats free list above.
	//abmm:allow hotpath-alloc
	a.hdrs = append(a.hdrs, m)
	a.mu.Unlock()
}

//abmm:hotpath
func (a *Arena) Mat(r, c int) *matrix.Matrix {
	m := a.Hdr()
	m.Init(r, c, a.Floats(r*c))
	return m
}

//abmm:hotpath
func (a *Arena) PutMat(m *matrix.Matrix) {
	a.PutFloats(m.Data)
	a.PutHdr(m)
}

//abmm:hotpath
func (a *Arena) Mats(n int) []*matrix.Matrix {
	if n == 0 {
		return nil
	}
	class := bits.Len(uint(n - 1))
	a.mu.Lock()
	if l := len(a.mats[class]); l > 0 {
		s := a.mats[class][l-1]
		a.mats[class] = a.mats[class][:l-1]
		a.mu.Unlock()
		return s[:n]
	}
	a.mu.Unlock()
	// Cold miss: pointer slices are minted per class until warm.
	//abmm:allow hotpath-alloc
	return make([]*matrix.Matrix, n, 1<<class)
}

//abmm:hotpath
func (a *Arena) PutMats(s []*matrix.Matrix) {
	c := cap(s)
	if c == 0 {
		return
	}
	class := bits.Len(uint(c)) - 1
	if 1<<class != c {
		return
	}
	s = s[:c]
	for i := range s {
		s[i] = nil
	}
	a.mu.Lock()
	// Warmup-bounded like the floats free list.
	//abmm:allow hotpath-alloc
	a.mats[class] = append(a.mats[class], s)
	a.mu.Unlock()
}
