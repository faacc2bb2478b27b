package m_test

import (
	m "example.com/testmod"
	"example.com/testmod/dep"
)

// extScaled passes a test-only export of m through dep.
func extScaled() float64 { return dep.Scale(m.HalfSample()).V }

// extPin lives in the external test package, loaded standalone.
func extPin() bool {
	a, b := 0.5, 0.5
	return a == b // determinism pin: legal in a test file
}
