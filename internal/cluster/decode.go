package cluster

import (
	"bytes"
	"encoding/json"
	"strconv"
)

// Bulk is implemented by a request type whose bulk is one member, a
// JSON array of numbers that decodeJSON parses in one pass.
type Bulk interface {
	// BulkMember names the member's key and the slice its numbers go
	// to. A nil slice pointer means the type has no field for the
	// member: its numbers are checked and dropped.
	BulkMember() (name string, dst *[]float64)
}

// decodeJSON decodes data into v with the result and the error
// json.Unmarshal gives. When *T is a Bulk and its member appears once
// at the top level of data, under its exact, unescaped key, as an array
// of plain JSON numbers, that array is parsed in one pass (scanNumber)
// into a slice sized by its commas, bit-identical to encoding/json, and
// json.Unmarshal sees only the rest, with the member's value replaced
// by null. Anything else is decoded by json.Unmarshal on all of data.
func decodeJSON[T any](data []byte, v *T) error {
	// The rest decodes into a copy: a rest that fails midway must leave
	// v as the fallback's json.Unmarshal expects to find it.
	tmp := *v
	if b, ok := any(&tmp).(Bulk); ok {
		name, dst := b.BulkMember()
		if rest, nums, ok := splitBulk(data, name, dst != nil); ok && json.Unmarshal(rest, &tmp) == nil {
			if dst != nil {
				*dst = nums
			}
			*v = tmp
			return nil
		}
	}
	return json.Unmarshal(data, v)
}

// splitBulk finds the member called name in the object data holds and
// parses its array of numbers (converting them only when keep is set);
// rest is data with that array replaced by null. ok needs one object,
// all keys unescaped, exactly one equal to name under case folding and
// spelled exactly so, with an array of numbers as its value. The other
// members are only delimited; json.Unmarshal of rest checks them.
func splitBulk(data []byte, name string, keep bool) (rest []byte, nums []float64, ok bool) {
	i := skipSpace(data, 0)
	if i == len(data) || data[i] != '{' {
		return nil, nil, false
	}
	start, end := -1, -1
	for i = skipSpace(data, i+1); i < len(data) && data[i] != '}'; {
		if data[i] != '"' {
			return nil, nil, false
		}
		k := i + 1
		for i = k; i < len(data) && data[i] != '"'; i++ {
			if data[i] == '\\' {
				return nil, nil, false
			}
		}
		if i == len(data) {
			return nil, nil, false
		}
		key := data[k:i]
		if i = skipSpace(data, i+1); i == len(data) || data[i] != ':' {
			return nil, nil, false
		}
		i = skipSpace(data, i+1)
		if bytes.EqualFold(key, []byte(name)) {
			if start >= 0 || string(key) != name {
				return nil, nil, false
			}
			start = i
			if end, nums, ok = parseNumbers(data, i, keep); !ok {
				return nil, nil, false
			}
			i = end
		} else if i = skipValue(data, i); i < 0 {
			return nil, nil, false
		}
		if i = skipSpace(data, i); i < len(data) && data[i] == ',' {
			i = skipSpace(data, i+1)
		}
	}
	if start < 0 {
		return nil, nil, false
	}
	rest = make([]byte, 0, len(data)-(end-start)+len("null"))
	rest = append(append(append(rest, data[:start]...), "null"...), data[end:]...)
	return rest, nums, true
}

// parseNumbers parses the JSON array of numbers at data[i] and returns
// the index just past it. Every element must match the JSON number
// grammar; with keep set, each is converted and must convert without
// error, into a slice as long as the array.
func parseNumbers(data []byte, i int, keep bool) (end int, nums []float64, ok bool) {
	if i == len(data) || data[i] != '[' {
		return 0, nil, false
	}
	// An array of numbers closes at its first ']', which bounds the
	// commas that size the slice.
	c := bytes.IndexByte(data[i:], ']')
	if c < 0 {
		return 0, nil, false
	}
	c += i
	if keep {
		nums = make([]float64, 0, bytes.Count(data[i:c], []byte{','})+1)
	}
	if i = skipSpace(data, i+1); i == c {
		return c + 1, nums, true
	}
	for {
		f, j := scanNumber(data, i, keep)
		if j < 0 {
			return 0, nil, false
		}
		if keep {
			nums = append(nums, f)
		}
		if i = skipSpace(data, j); i == c {
			return c + 1, nums, true
		}
		if data[i] != ',' {
			return 0, nil, false
		}
		i = skipSpace(data, i+1)
	}
}

// scanNumber scans the JSON number that starts at data[i],
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns the index
// just past it, or -1 when none does. With convert set it also returns
// its value: eiselLemire64 rounds the gathered mantissa and power of
// ten, and strconv.ParseFloat (the call encoding/json makes) takes the
// numbers it declines or that have over 19 digits or 4 exponent digits.
func scanNumber(data []byte, i int, convert bool) (f float64, end int) {
	start := i
	neg := i < len(data) && data[i] == '-'
	if neg {
		i++
	}
	// man wraps once nd passes 19, and exp10 is not the exponent once
	// longExp is set; such a number never reaches eiselLemire64.
	var man uint64
	nd, exp10, longExp := 0, 0, false
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case i < len(data) && '1' <= data[i] && data[i] <= '9':
		j := i
		i, man = digits(data, i, 0)
		nd = i - j
	default:
		return 0, -1
	}
	if i < len(data) && data[i] == '.' {
		i++
		j := i
		if man == 0 {
			// Leading zeros of the fraction are not significant.
			for i < len(data) && data[i] == '0' {
				i++
			}
		}
		k := i
		i, man = digits(data, i, man)
		if i == j {
			return 0, -1
		}
		nd += i - k
		exp10 = j - i
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		eneg := i < len(data) && data[i] == '-'
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		j := i
		var e uint64
		if i, e = digits(data, i, 0); i == j {
			return 0, -1
		}
		// More than four digits are far outside the table or
		// zero-padded, and e may have wrapped: leave the number to
		// strconv.ParseFloat. Skipped fraction zeros can pull a large
		// exponent back into the table, so exp10 cannot flag it.
		longExp = i-j > 4
		if eneg {
			e = -e
		}
		exp10 += int(e)
	}
	if !convert {
		return 0, i
	}
	if nd <= 19 && !longExp {
		if f, ok := eiselLemire64(man, exp10, neg); ok {
			return f, i
		}
	}
	f, err := strconv.ParseFloat(string(data[start:i]), 64)
	if err != nil {
		return 0, -1
	}
	return f, i
}

// digits scans the decimal digits at data[i:] and returns the index just
// past them and man with them appended, modulo 2^64.
func digits(data []byte, i int, man uint64) (int, uint64) {
	for ; i < len(data) && '0' <= data[i] && data[i] <= '9'; i++ {
		man = man*10 + uint64(data[i]-'0')
	}
	return i, man
}

func skipSpace(data []byte, i int) int {
	for i < len(data) && (data[i] == ' ' || data[i] == '\t' || data[i] == '\n' || data[i] == '\r') {
		i++
	}
	return i
}

// skipValue returns the index just past the JSON value that starts at
// data[i], or -1 when data ends inside it. It only delimits strings,
// brackets and scalars.
func skipValue(data []byte, i int) int {
	depth := 0
	for ; i < len(data); i++ {
		switch data[i] {
		case '"':
			for i++; i < len(data) && data[i] != '"'; i++ {
				if data[i] == '\\' {
					i++
				}
			}
			if i >= len(data) {
				return -1
			}
			if depth == 0 {
				return i + 1
			}
		case '{', '[':
			depth++
		case '}', ']':
			if depth == 0 {
				return i
			}
			if depth--; depth == 0 {
				return i + 1
			}
		case ',', ' ', '\t', '\n', '\r':
			if depth == 0 {
				return i
			}
		}
	}
	if depth > 0 {
		return -1
	}
	return i
}
