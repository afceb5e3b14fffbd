package cluster

import (
	"errors"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// TestPowTenMatchesBig regenerates every row of powTen with math/big:
// the top 128 bits of 10^e, rounded down.
func TestPowTenMatchesBig(t *testing.T) {
	if got, want := len(powTen), powTenMaxExp10-powTenMinExp10+1; got != want {
		t.Fatalf("powTen has %d rows, want %d", got, want)
	}
	ten := big.NewInt(10)
	for e := powTenMinExp10; e <= powTenMaxExp10; e++ {
		p := new(big.Int).Exp(ten, big.NewInt(int64(max(e, -e))), nil)
		var q *big.Int
		if e >= 0 {
			q = p.Lsh(p, uint(128-p.BitLen()))
		} else {
			// 10^-e is no power of two, so 2^(127+len)/10^-e lies
			// strictly between 2^127 and 2^128.
			q = new(big.Int).Quo(new(big.Int).Lsh(big.NewInt(1), uint(127+p.BitLen())), p)
		}
		lo := new(big.Int).And(q, new(big.Int).SetUint64(math.MaxUint64)).Uint64()
		hi := new(big.Int).Rsh(q, 64).Uint64()
		if row := powTen[e-powTenMinExp10]; row != [2]uint64{lo, hi} {
			t.Errorf("1e%d: row {%#x, %#x}, math/big gives {%#x, %#x}", e, row[0], row[1], lo, hi)
		}
	}
}

// TestEiselLemireDeclinesHalfway: the exact halfway seeds of
// FuzzDecodeJSON reach strconv.ParseFloat, so the fuzz run covers the
// fallback as well as the fast path.
func TestEiselLemireDeclinesHalfway(t *testing.T) {
	for _, c := range []struct {
		man   uint64
		exp10 int
	}{
		{9007199254740993, 0},     // 2^53 + 1
		{18014398509481986, 0},    // 2^54 + 2
		{45035996273704965, -1},   // 2^52 + 1/2
		{225179981368524825, -2},  // 2^51 + 1/4
		{1125899906842624125, -3}, // 2^50 + 1/8
	} {
		if f, ok := eiselLemire64(c.man, c.exp10, false); ok {
			t.Errorf("%de%d: eiselLemire64 gives %v, want it to decline", c.man, c.exp10, f)
		}
	}
}

// TestParseNumbersAllocatesOnlyTheSlice: converting a number allocates
// nothing, even one spelled in more bytes than a string conversion
// keeps on the stack, so eiselLemire64 and not the fallback converted
// it.
func TestParseNumbersAllocatesOnlyTheSlice(t *testing.T) {
	const long = "-0.000000001234567890123456789e+05" // 34 bytes, 19 digits, 10^-22
	body := []byte("[" + strings.Repeat(long+",", 99) + long + "]")
	want, err := strconv.ParseFloat(long, 64)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		_, nums, ok := parseNumbers(body, 0, true)
		if !ok || len(nums) != 100 || nums[99] != want {
			t.Fatalf("parseNumbers gives %d numbers, ok %v", len(nums), ok)
		}
	})
	if allocs != 1 {
		t.Errorf("parseNumbers makes %v allocations, want 1 (the slice)", allocs)
	}
}

// onePassOnly is a request whose only member is its bulk, and which
// json.Unmarshal refuses unless that member is null: decodeJSON decodes
// it without error only on its one-pass path.
type onePassOnly struct {
	Data nullOnly `json:"data"`
	nums []float64
}

func (r *onePassOnly) BulkMember() (string, *[]float64) { return "data", &r.nums }

type nullOnly struct{}

func (*nullOnly) UnmarshalJSON(b []byte) error {
	if string(b) != "null" {
		return errors.New("the bulk reached encoding/json")
	}
	return nil
}

// TestDecodeNumbersMatchParseFloat: random finite float64s, each written
// five ways — shortest 'g', shortest 'f', 'e' with 16 and with 17
// significant digits, and 20 to 25 significant digits — decode through
// decodeJSON's one-pass path to strconv.ParseFloat's bits. One bit
// pattern in eight is uniform over every finite float64, so most of
// those take the fallback; the rest have magnitudes within powTen's
// reach, which Eisel–Lemire converts.
func TestDecodeNumbersMatchParseFloat(t *testing.T) {
	patterns, batch := 1<<20, 1<<14
	if testing.Short() {
		patterns = 1 << 17
	}
	rng := rand.New(rand.NewSource(35))
	random := func() float64 {
		for {
			u := rng.Uint64()
			if rng.Intn(8) != 0 {
				// Biased exponents 923..1096: 2^-100 ≈ 8e-31 up to 2^74 ≈ 2e22.
				u = u&^(0x7FF<<52) | uint64(923+rng.Intn(174))<<52
			}
			if f := math.Float64frombits(u); !math.IsInf(f, 0) && !math.IsNaN(f) {
				return f
			}
		}
	}
	var body strings.Builder
	var want []float64
	for done := 0; done < patterns; done += batch {
		body.Reset()
		body.WriteString(`{"data":[`)
		want = want[:0]
		for range batch {
			f := random()
			for _, s := range []string{
				strconv.FormatFloat(f, 'g', -1, 64),
				strconv.FormatFloat(f, 'f', -1, 64),
				strconv.FormatFloat(f, 'e', 15, 64),
				strconv.FormatFloat(f, 'e', 16, 64),
				strconv.FormatFloat(f, 'e', 19+rng.Intn(6), 64),
			} {
				w, err := strconv.ParseFloat(s, 64)
				if err != nil {
					continue // rounded past the largest float64
				}
				if len(want) > 0 {
					body.WriteByte(',')
				}
				body.WriteString(s)
				want = append(want, w)
			}
		}
		body.WriteString(`]}`)
		var got onePassOnly
		if err := decodeJSON([]byte(body.String()), &got); err != nil {
			t.Fatal(err)
		}
		if len(got.nums) != len(want) {
			t.Fatalf("decoded %d numbers, want %d", len(got.nums), len(want))
		}
		for i, w := range want {
			if math.Float64bits(got.nums[i]) != math.Float64bits(w) {
				t.Fatalf("number %d: decodeJSON gives %#x, strconv.ParseFloat %#x (%v)",
					i, math.Float64bits(got.nums[i]), math.Float64bits(w), w)
			}
		}
	}
}
