// Stale allows under the whole suite: an allow token that suppresses
// nothing is itself reported, one token at a time, and an allow on the
// diagnostic's own line is matched before one on the line above.
package fixture

func Step(x int) {
	if x < 0 {
		panic("negative step") //lint:allow panicguard assertion on a programmer error // NEG: suppresses panicguard
	}
}

func Build(x int) int {
	return x + 1 //lint:allow panicguard nothing panics here // want "//lint:allow panicguard suppresses nothing"
}

func Tick(x int) {
	//lint:allow panicguard shadowed by the same-line allow below // want "//lint:allow panicguard suppresses nothing"
	if x < 0 {
		panic("negative tick") //lint:allow panicguard,floateq the panic is an audited assertion // want "//lint:allow floateq suppresses nothing"
	}
}

func Advance(x int) {
	//lint:allow panicguard covers the panic on the next line // NEG: the line-above rule
	panic("advance unsupported")
}
