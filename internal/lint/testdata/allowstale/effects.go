// Effects allows earn their keep only inside certified reach: the fact
// an allow drops must sit in a function that a root certifying the
// dropped effect reaches. The helpers stay out of line so the compiler
// attributes their allocations to their own frames.
package fixture

var sink []byte

//go:noinline
func warm(n int) {
	if cap(sink) < n {
		sink = make([]byte, n) //lint:allow effects amortized growth under a noalloc root // NEG: reached by hot
	}
}

//lint:certify noalloc
func hot() {
	warm(64)
}

//go:noinline
func cold(n int) {
	sink = make([]byte, n) //lint:allow effects no root reaches this allocation // want "//lint:allow effects suppresses nothing"
}

//go:noinline
func sized(n int) {
	sink = make([]byte, n) //lint:allow effects the root below certifies nopanic, not noalloc // want "//lint:allow effects suppresses nothing"
}

//lint:certify nopanic
func safe() {
	sized(8)
}
