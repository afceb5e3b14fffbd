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
// the top 128 bits of 10^e, rounded down; each must also equal the row
// strconv's table has.
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
		if row := powTen[e-powTenMinExp10]; row != [2]uint64{lo, hi} || row != strconvPowTen[e-powTenMinExp10] {
			t.Errorf("1e%d: row {%#x, %#x}, math/big gives {%#x, %#x}, strconv %#x", e, row[0], row[1], lo, hi, strconvPowTen[e-powTenMinExp10])
		}
	}
}

// strconvPowTen is strconv's detailedPowersOfTen (Go 1.24) for 1e-30 to
// 1e22, as {low, high} halves: the rows powTen computes.
var strconvPowTen = [...][2]uint64{
	{0xA1258379A94D028D, 0xA2425FF75E14FC31}, // 1e-30
	{0x096EE45813A04330, 0xCAD2F7F5359A3B3E}, // 1e-29
	{0x8BCA9D6E188853FC, 0xFD87B5F28300CA0D}, // 1e-28
	{0x775EA264CF55347D, 0x9E74D1B791E07E48}, // 1e-27
	{0x95364AFE032A819D, 0xC612062576589DDA}, // 1e-26
	{0x3A83DDBD83F52204, 0xF79687AED3EEC551}, // 1e-25
	{0xC4926A9672793542, 0x9ABE14CD44753B52}, // 1e-24
	{0x75B7053C0F178293, 0xC16D9A0095928A27}, // 1e-23
	{0x5324C68B12DD6338, 0xF1C90080BAF72CB1}, // 1e-22
	{0xD3F6FC16EBCA5E03, 0x971DA05074DA7BEE}, // 1e-21
	{0x88F4BB1CA6BCF584, 0xBCE5086492111AEA}, // 1e-20
	{0x2B31E9E3D06C32E5, 0xEC1E4A7DB69561A5}, // 1e-19
	{0x3AFF322E62439FCF, 0x9392EE8E921D5D07}, // 1e-18
	{0x09BEFEB9FAD487C2, 0xB877AA3236A4B449}, // 1e-17
	{0x4C2EBE687989A9B3, 0xE69594BEC44DE15B}, // 1e-16
	{0x0F9D37014BF60A10, 0x901D7CF73AB0ACD9}, // 1e-15
	{0x538484C19EF38C94, 0xB424DC35095CD80F}, // 1e-14
	{0x2865A5F206B06FB9, 0xE12E13424BB40E13}, // 1e-13
	{0xF93F87B7442E45D3, 0x8CBCCC096F5088CB}, // 1e-12
	{0xF78F69A51539D748, 0xAFEBFF0BCB24AAFE}, // 1e-11
	{0xB573440E5A884D1B, 0xDBE6FECEBDEDD5BE}, // 1e-10
	{0x31680A88F8953030, 0x89705F4136B4A597}, // 1e-9
	{0xFDC20D2B36BA7C3D, 0xABCC77118461CEFC}, // 1e-8
	{0x3D32907604691B4C, 0xD6BF94D5E57A42BC}, // 1e-7
	{0xA63F9A49C2C1B10F, 0x8637BD05AF6C69B5}, // 1e-6
	{0x0FCF80DC33721D53, 0xA7C5AC471B478423}, // 1e-5
	{0xD3C36113404EA4A8, 0xD1B71758E219652B}, // 1e-4
	{0x645A1CAC083126E9, 0x83126E978D4FDF3B}, // 1e-3
	{0x3D70A3D70A3D70A3, 0xA3D70A3D70A3D70A}, // 1e-2
	{0xCCCCCCCCCCCCCCCC, 0xCCCCCCCCCCCCCCCC}, // 1e-1
	{0x0000000000000000, 0x8000000000000000}, // 1e0
	{0x0000000000000000, 0xA000000000000000}, // 1e1
	{0x0000000000000000, 0xC800000000000000}, // 1e2
	{0x0000000000000000, 0xFA00000000000000}, // 1e3
	{0x0000000000000000, 0x9C40000000000000}, // 1e4
	{0x0000000000000000, 0xC350000000000000}, // 1e5
	{0x0000000000000000, 0xF424000000000000}, // 1e6
	{0x0000000000000000, 0x9896800000000000}, // 1e7
	{0x0000000000000000, 0xBEBC200000000000}, // 1e8
	{0x0000000000000000, 0xEE6B280000000000}, // 1e9
	{0x0000000000000000, 0x9502F90000000000}, // 1e10
	{0x0000000000000000, 0xBA43B74000000000}, // 1e11
	{0x0000000000000000, 0xE8D4A51000000000}, // 1e12
	{0x0000000000000000, 0x9184E72A00000000}, // 1e13
	{0x0000000000000000, 0xB5E620F480000000}, // 1e14
	{0x0000000000000000, 0xE35FA931A0000000}, // 1e15
	{0x0000000000000000, 0x8E1BC9BF04000000}, // 1e16
	{0x0000000000000000, 0xB1A2BC2EC5000000}, // 1e17
	{0x0000000000000000, 0xDE0B6B3A76400000}, // 1e18
	{0x0000000000000000, 0x8AC7230489E80000}, // 1e19
	{0x0000000000000000, 0xAD78EBC5AC620000}, // 1e20
	{0x0000000000000000, 0xD8D726B7177A8000}, // 1e21
	{0x0000000000000000, 0x878678326EAC9000}, // 1e22
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
