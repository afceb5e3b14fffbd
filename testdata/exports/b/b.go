// Package b calls a.Used.
package b

import "fixture/internal/a"

// Call returns a.Used's value.
func Call() int { return a.Used() }
