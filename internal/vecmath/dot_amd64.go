//go:build amd64 && gc && !purego

package vecmath

// useAVX selects the assembly training kernels (dot_amd64.s), under the
// same CPU and OS probe as DotRows. The kernels are called directly behind
// this flag rather than through a function value as DotRows is: an
// indirect call makes the compiler assume every argument escapes, which
// would move the stack buffers that Dot and sgns.Pair hand the kernels to
// the heap on every call.
var useAVX = hasAVX()

// dotsAVX is Dots with the 4-lane schedule, 8 elements per step: each
// 8-wide product's low half and then its high half are added into one
// 4-lane accumulator, which keeps every lane's ascending order. Requires
// len(dst) == len(rows) and len(rows[k]) == len(v) (checked by callers).
//
//go:noescape
func dotsAVX(dst, v []float32, rows [][]float32)

// axpyAVX is Axpy, 8 elements per step, then a scalar tail.
//
//go:noescape
func axpyAVX(alpha float32, x, y []float32)

// axpyPairAVX is AxpyPair, 8 elements per step, then a scalar tail.
//
//go:noescape
func axpyPairAVX(alpha float32, v, c, grad []float32)
