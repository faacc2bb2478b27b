// Basic certification contracts: intrinsic and transitive effects,
// failure-path exclusion, and the //lint:allow effects line exemption.
package fixture

import "fmt"

var sink *int

// boxInt's allocation is two frames below the certified root.
func boxInt() *int {
	v := new(int)
	return v
}

func viaHelper() {
	sink = boxInt()
}

//lint:certify noalloc // want "noalloc"
func hotTick() {
	viaHelper()
}

func mustPositive(x int) {
	if x < 0 {
		panic("negative input")
	}
}

//lint:certify nopanic // want "nopanic"
func step(x int) {
	mustPositive(x)
}

func sumAll(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

//lint:certify noalloc,nopanic,deterministic // NEG: transitively clean
func cleanRoot(xs []float64) float64 {
	return sumAll(xs)
}

//lint:certify noalloc // NEG: error construction sits on the failure path
func checked(n int) error {
	if n < 0 {
		return fmt.Errorf("bad n %d", n)
	}
	return nil
}

var pool []byte

//lint:certify noalloc // NEG: the deliberate allocation carries its exemption
func pooled() {
	if cap(pool) == 0 {
		pool = make([]byte, 4096) //lint:allow effects amortized warm-up growth, reused across ticks
	}
}
