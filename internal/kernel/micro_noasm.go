//go:build !amd64

package kernel

// Non-amd64 targets always take the portable Go micro-kernel.
const (
	haveAVX2   = false
	haveAVX512 = false
)

// microAVX2 is never called when haveAVX2 is false; this stub keeps
// the dispatch in micro.go portable.
func microAVX2(ap, bp *float64, kc int, acc *[MR * NR]float64) {
	panic("kernel: microAVX2 without AVX2 support")
}

// microAVX512 is never called when haveAVX512 is false; this stub
// keeps the dispatch in micro.go portable.
func microAVX512(ap, bp *float64, kc int, acc *[MR * NR]float64) {
	panic("kernel: microAVX512 without AVX-512 support")
}
