// Hot-path allocation, positive cases: a certified noalloc root fails on
// any site the compiler's escape analysis (go build -gcflags=-m) moves to
// the heap, and effects names the compiler's verdict for that site.
package fixture

import "encoding/binary"

var sink *int

//lint:certify noalloc // want "new(int) escapes to heap"
func escapes() {
	p := new(int)
	sink = p
}

//lint:certify noalloc // want "make([]int, n) escapes to heap"
func grows(n int) []int {
	return make([]int, n)
}

//lint:certify noalloc // want "moved to heap: i"
func closure() func() int {
	i := 0
	return func() int {
		i++
		return i
	}
}

// The closure object is built where the literal is evaluated, so its
// allocation belongs to the enclosing root, not to the literal's body.
//
//lint:certify noalloc // want "func literal escapes to heap"
func capture(x int) func() int {
	return func() int { return x }
}

// PutUvarint into a buffer shorter than binary.MaxVarintLen64 may index
// out of range.
//
//lint:certify nopanic // want "PutUvarint"
func putLenShort(n uint64) int {
	var buf [2]byte
	return binary.PutUvarint(buf[:], n)
}
