// Package solver is the fixture for the solver tests: a helper chain
// declared caller-first, and a recursive cycle. No analyzer runs on it.
package solver

func top() int  { return mid() + 1 }
func mid() int  { return leaf() + 1 }
func leaf() int { return 1 }

func even(n int) bool {
	if n == 0 {
		return true
	}
	return odd(n - 1)
}

func odd(n int) bool {
	if n == 0 {
		return false
	}
	return even(n - 1)
}
