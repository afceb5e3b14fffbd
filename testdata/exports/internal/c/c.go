// Package c is the unexported-helper audit's fixture: dead, recursive
// (which only calls itself) and counter.stale have no caller in a
// non-test file of the package; the other helpers do.
package c

var table = []func() int{viaValue}

func init() { _ = live() + table[0]() + counter{}.tick() }

func live() int { return 1 }

func viaValue() int { return 2 }

func dead() int { return live() }

func recursive(n int) int {
	if n == 0 {
		return 0
	}
	return recursive(n - 1)
}

type counter struct{}

func (counter) tick() int { return 3 }

func (c counter) stale() int { return c.tick() }
