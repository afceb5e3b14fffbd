// Package errstatus is the errstatus analyzer corpus: error testing
// discipline. Lines with trailing "want" comments expect a finding
// whose message matches the pattern.
package errstatus

import "errors"

// ErrGone is a sentinel; code paths wrap it, so == misses it.
var ErrGone = errors.New("gone")

// codeError is a typed error carried through wrapping.
type codeError struct{ code int }

func (e *codeError) Error() string { return "code error" }

// SentinelCompare tests a sentinel with ==.
func SentinelCompare(err error) bool {
	if err == ErrGone { // want `comparing errors with == misses wrapped errors: use errors.Is`
		return true
	}
	return false
}

// SentinelNotEqual is the != spelling of the same mistake.
func SentinelNotEqual(err error) bool {
	return err != ErrGone // want `comparing errors with != misses wrapped errors: use errors.Is`
}

// NilCompare is idiomatic and stays silent.
func NilCompare(err error) bool {
	return err == nil
}

// UsesIs is the correct form.
func UsesIs(err error) bool {
	return errors.Is(err, ErrGone)
}

// DirectAssert type-asserts an error.
func DirectAssert(err error) int {
	if ce, ok := err.(*codeError); ok { // want `type-asserting an error misses wrapped errors: use errors.As`
		return ce.code
	}
	return 0
}

// UsesAs is the correct form.
func UsesAs(err error) int {
	var ce *codeError
	if errors.As(err, &ce) {
		return ce.code
	}
	return 0
}

// TypeSwitchIsIdiomatic: a type switch over an error is left alone
// (it reads as dispatch, not sentinel matching).
func TypeSwitchIsIdiomatic(err error) int {
	switch e := err.(type) {
	case *codeError:
		return e.code
	default:
		return 0
	}
}

// Suppressed is the pragma-silenced twin of SentinelCompare: identity
// comparison on purpose.
func Suppressed(err error) bool {
	return err == ErrGone //hsd:allow errstatus corpus twin: identity check is intended
}
