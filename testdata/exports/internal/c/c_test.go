package c

// A test caller does not make a helper live.
var _ = dead() + recursive(1) + counter{}.stale()
