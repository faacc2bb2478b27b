package m

// checkExact references the unexported baseRate, so this file only
// type-checks when augmented with the non-test sources. The division at
// the comparison is the one floateq shape still flagged in tests.
func checkExact() bool {
	r := Rate()
	if r != baseRate { //lint:allow floateq stale: a determinism pin is legal in a test file
		return false
	}
	return r/2 == 2.5 // fresh arithmetic at the comparison: flagged
}
