package cluster_test

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
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
