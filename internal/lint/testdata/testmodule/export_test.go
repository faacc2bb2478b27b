package m

// HalfSample is exported by a test file only: the external test package
// sees it because it is built against m augmented with its test files.
func HalfSample() Sample { return Sample{V: baseRate / 2} }
