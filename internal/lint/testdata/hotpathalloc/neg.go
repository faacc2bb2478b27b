// Hot-path allocation, negative cases: certified noalloc roots that
// allocate nothing, an allocator no root reaches, allowed amortized
// growth, and the standard library's growth-only encoders.
package fixture

import (
	"encoding/binary"
	"strconv"
)

//lint:certify noalloc // NEG: pure arithmetic allocates nothing
func sum(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}

func alloc() *int {
	return new(int) // NEG: allocates, but no certified root reaches it
}

//lint:certify noalloc // NEG: amortized growth carries its exemption
func grow(dst []byte, n int) []byte {
	if cap(dst) < n {
		dst = make([]byte, n) //lint:allow effects amortized growth, only when capacity is exceeded
	}
	return dst[:n]
}

//lint:certify noalloc,nopanic // NEG: append-style encoders only grow the caller's buffer
func encode(dst []byte, v int64) []byte {
	dst = strconv.AppendInt(dst, v, 10)
	return binary.AppendUvarint(dst, uint64(v))
}

//lint:certify noalloc // NEG: PutUvarint writes into a caller-sized array
func putLen(n uint64) int {
	var buf [binary.MaxVarintLen64]byte
	return binary.PutUvarint(buf[:], n)
}
