//go:build !amd64 || !gc || purego

package vecmath

// Without the assembly the training kernels run their pure-Go references.
// The stubs below only satisfy the compiler: useAVX is a constant false,
// so no call to them survives.
const useAVX = false

func dotsAVX(dst, v []float32, rows [][]float32) { panic("vecmath: no AVX kernel") }

func axpyAVX(alpha float32, x, y []float32) { panic("vecmath: no AVX kernel") }

func axpyPairAVX(alpha float32, v, c, grad []float32) { panic("vecmath: no AVX kernel") }
