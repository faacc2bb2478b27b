// Package m is the loader fixture for LoadModuleTests: in-package test
// files (augmented with these sources) and one external test package
// that uses a test-only export together with a package importing m.
package m

const baseRate = 5.0

// Rate returns the base rate.
func Rate() float64 { return baseRate }

// Sample is a value type shared with package dep.
type Sample struct{ V float64 }
