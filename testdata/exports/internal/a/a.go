// Package a is the dead-export audit's fixture: it exports one name
// package b calls and one that only its own package reaches.
package a

// Used is called by package b.
func Used() int { return Unused() }

// Unused has no caller outside this package.
func Unused() int { return 1 }
