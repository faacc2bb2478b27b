// Package dep imports the fixture package m, so an external test of m
// that passes values between the two type-checks only if dep is checked
// against the same augmented m.
package dep

import m "example.com/testmod"

// Scale doubles a sample.
func Scale(s m.Sample) m.Sample { return m.Sample{V: 2 * s.V} }
