//go:build ignore

// The build constraint excludes this file from package m, as the go tool
// does. It redeclares baseRate, so a loader that read it would fail to
// type-check m.
package m

const baseRate = 1.0
