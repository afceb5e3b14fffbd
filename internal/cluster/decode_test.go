package cluster_test

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mat"
)

// bulkRequest has a member of every kind a request type carries, with
// data as its bulk. json.Unmarshal ignores the BulkMember method, so the
// same type is the reference's target too.
type bulkRequest struct {
	ID    string    `json:"id"`
	N     int       `json:"n"`
	Tol   float64   `json:"tol"`
	Flag  bool      `json:"flag"`
	Data  []float64 `json:"data"`
	Tags  []string  `json:"tags"`
	Inner *struct {
		Data []float64 `json:"data"`
	} `json:"inner"`
}

func (r *bulkRequest) BulkMember() (string, *[]float64) { return "data", &r.Data }

// droppedRequest has no field for its bulk member, like the router's
// view of a solve: the member is checked and dropped.
type droppedRequest struct {
	ID string `json:"id"`
	N  int    `json:"n"`
}

func (*droppedRequest) BulkMember() (string, *[]float64) { return "data", nil }

// decodeSeeds are the guard table's bodies plus the inputs where a
// one-pass parse could part from encoding/json: key spelling and
// repetition, elements that are not plain numbers, the number grammar's
// edges, and what follows the value.
var decodeSeeds = []string{
	`{}`,
	`{"pad":"` + strings.Repeat("x", 247) + `"}`,
	`{"n":4} []`,
	`{"id":"a","n":3,"tol":1e-9,"flag":true,"data":[1,-2.5,3e10],"tags":["x"],"inner":{"data":[7]}}`,
	`{"data":[]}`,
	`{"data":[ 1 , 2 ]}`,
	` {"data":[1]} `,
	`{"DATA":[1,2]}`,
	`{"Data":[1],"data":[2]}`,
	`{"data":[1,2],"data":[3]}`,
	`{"data":[1],"data":[2,null]}`,
	`{"data":[1]}`,
	`{"data":[1,null]}`,
	`{"data":null}`,
	`{"data":[1e400]}`,
	`{"data":[-1e400]}`,
	`{"data":[1e-400]}`,
	`{"data":[-0]}`,
	`{"data":[01]}`,
	`{"data":[1,]}`,
	`{"data":[,1]}`,
	`{"data":[.5]}`,
	`{"data":[+1]}`,
	`{"data":[1.]}`,
	`{"data":[1e]}`,
	`{"data":[-]}`,
	`{"data":[NaN]}`,
	// Conversion edges: 16, 17, 19, 20 and 25 significant digits.
	`{"data":[0.6046602879796196,-0.94050909314101,0.12345678901234567]}`,
	`{"data":[1234567890123456789,0.1234567890123456789,-9999999999999999999]}`,
	`{"data":[12345678901234567890,0.10000000000000000000,1234567890123456789012345e-30]}`,
	// Exact halfway cases Eisel–Lemire declines: 2^53+1, 2^54+2,
	// 2^52+1/2, 2^51+1/4, 2^50+1/8.
	`{"data":[9007199254740993,18014398509481986,4503599627370496.5,2251799813685248.25,1125899906842624.125]}`,
	`{"data":[9007199254740993e0,9.007199254740993e15,-9007199254740993]}`,
	// Leading fraction zeros and signed zeros.
	`{"data":[0.000123,0.0000000000000000000000000001,0.000,-0.0,-0.0e5,0e-999999999999999999]}`,
	// The ends of the power table, 1e-30 and 1e22, and just past them.
	`{"data":[1e-30,12345678901234567e-30,1e-31,12345678901234567e-31,1e22,1.5E+23,1e23,9999999999999999e22]}`,
	// Subnormals, the normal range's ends, overflow.
	`{"data":[4.9e-324,5e-324,2.225073858507201e-308,2.2250738585072014e-308,1.7976931348623157e308]}`,
	`{"data":[1e309]}`,
	`{"data":[1.7976931348623159e308]}`,
	`{"data":[1e99999999999999999999]}`,
	// Exponents of 2^64+1: one that wraps in a uint64 reads as ±1.
	`{"data":[1e18446744073709551617]}`,
	`{"data":[1e-18446744073709551617,1e0000000000000000000000001]}`,
	// Zero-padded five-digit exponents, which go to strconv.ParseFloat.
	`{"data":[1e00005,0.001e00003,-0.5e-00001]}`,
	`{"data":[[1]]}`,
	`{"data":["1"]}`,
	`{"data":"1"}`,
	`{"data":[1]} {"data":[2]}`,
	`{"data":[1]}]`,
	`{"data":[1]`,
	`{"data":[1],}`,
	`{"n":"x","data":[1]}`,
	`{"id":"]","data":[1],"tags":["data"]}`,
	`[1,2]`,
	`null`,
	``,
}

func sameFloats(a, b []float64) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// sameRequest compares every field, the floats bit for bit.
func sameRequest(a, b bulkRequest) bool {
	if !sameFloats(a.Data, b.Data) || math.Float64bits(a.Tol) != math.Float64bits(b.Tol) {
		return false
	}
	if (a.Inner == nil) != (b.Inner == nil) || a.Inner != nil && !sameFloats(a.Inner.Data, b.Inner.Data) {
		return false
	}
	a.Data, b.Data, a.Tol, b.Tol, a.Inner, b.Inner = nil, nil, 0, 0, nil, nil
	return reflect.DeepEqual(a, b)
}

func sameError(a, b error) bool {
	return (a == nil) == (b == nil) && (a == nil || a.Error() == b.Error())
}

// FuzzDecodeJSON: for any bytes, DecodeJSON gives what json.Unmarshal
// gives — the same error or none, and the same value in every field, bit
// for bit — on a type whose bulk member is kept and on one whose bulk
// member is dropped.
func FuzzDecodeJSON(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var want, got bulkRequest
		wantErr, gotErr := json.Unmarshal(body, &want), cluster.DecodeJSON(body, &got)
		if !sameError(gotErr, wantErr) || !sameRequest(got, want) {
			t.Fatalf("%q: DecodeJSON gives %+v, %v; json.Unmarshal %+v, %v", body, got, gotErr, want, wantErr)
		}
		var wantID, gotID droppedRequest
		wantErr, gotErr = json.Unmarshal(body, &wantID), cluster.DecodeJSON(body, &gotID)
		if !sameError(gotErr, wantErr) || gotID != wantID {
			t.Fatalf("%q, member dropped: DecodeJSON gives %+v, %v; json.Unmarshal %+v, %v", body, gotID, gotErr, wantID, wantErr)
		}
	})
}

// TestDecodeJSONFractionZerosAndLongExponent: skipped leading fraction
// zeros can cancel an exponent of five or more digits back into the
// power table's range (0.<65530 zeros>1e65536 is 1e5), so such a number
// must go to strconv.ParseFloat. The bodies are too long for
// decodeSeeds, where they would slow every fuzzing run.
func TestDecodeJSONFractionZerosAndLongExponent(t *testing.T) {
	zeros := strings.Repeat("0", 65530)
	for _, e := range []string{"00000", "00005", "65536", "65541", "99999", "-00000", "-65536", "+65536"} {
		body := []byte(`{"data":[0.` + zeros + `1e` + e + `,-0.` + zeros + `1e` + e + `]}`)
		var want, got bulkRequest
		wantErr, gotErr := json.Unmarshal(body, &want), cluster.DecodeJSON(body, &got)
		if !sameError(gotErr, wantErr) || !sameRequest(got, want) {
			t.Errorf("0.<%d zeros>1e%s: DecodeJSON gives %v, error %t; json.Unmarshal %v, error %t",
				len(zeros), e, got.Data, gotErr != nil, want.Data, wantErr != nil)
		}
	}
}

// BenchmarkDecodeJSONFactor times DecodeJSON on a factor request's
// body, the json.Marshal form of an n = 512 mat.Random matrix, against
// json.Unmarshal on the same body.
func BenchmarkDecodeJSONFactor(b *testing.B) {
	const n = 512
	body, err := json.Marshal(bulkRequest{N: n, Data: mat.Random(n, n, rand.New(rand.NewSource(1))).Data})
	if err != nil {
		b.Fatal(err)
	}
	for _, dec := range []struct {
		name   string
		decode func([]byte, *bulkRequest) error
	}{
		{"one-pass", cluster.DecodeJSON[bulkRequest]},
		{"encoding-json", func(d []byte, v *bulkRequest) error { return json.Unmarshal(d, v) }},
	} {
		b.Run(dec.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for b.Loop() {
				var req bulkRequest
				if err := dec.decode(body, &req); err != nil || len(req.Data) != n*n {
					b.Fatalf("decoded %d numbers, %v", len(req.Data), err)
				}
			}
		})
	}
}
