// defer/recover interaction with the panics effect: a deferred recover
// masks panics at the barrier function's boundary, and no further.
package fixture

func mustEven(x int) {
	if x%2 != 0 {
		panic("odd input")
	}
}

// guarded swallows its callees' panics behind a deferred recover.
func guarded(x int) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	mustEven(x)
	return true
}

//lint:certify nopanic // NEG: the recover barrier masks the panic
func safeStep(x int) {
	_ = guarded(x)
}

//lint:certify nopanic // want "nopanic"
func unsafeStep(x int) {
	mustEven(x)
}

func assertState(ready bool) {
	if !ready {
		panic("fixture: not ready") //lint:allow effects audited assertion, fires only on programmer error
	}
}

//lint:certify nopanic // NEG: audited assertions are exempt by their allow line
func auditedStep() {
	assertState(true)
}
