package server

// Differential fuzzing of the wire codec against encoding/json, which the
// data handlers no longer use and which stays here as the reference.

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"
)

// load stands in for readBody.
func (s *scratch) load(body []byte) { s.in, s.pos = append(s.in[:0], body...), 0 }

// hasMiscasedMember reports whether body names a schema member in the
// wrong case ("KEY", "Ops", or a Unicode fold such as the Kelvin sign for
// k) before its first syntax error: encoding/json matches those, the
// codec by design does not, so the two may differ on such a body. Every
// string token is tested, member name or not, which only skips a few
// inputs more.
func hasMiscasedMember(body []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	for {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		if s, ok := tok.(string); ok && fieldOf([]byte(s)) == 0 {
			for _, name := range []string{"ops", "kind", "key", "value", "delta"} {
				if strings.EqualFold(s, name) {
					return true
				}
			}
		}
	}
}

// FuzzDecodeBatch: on any bytes the batch decoder and json.Unmarshal into
// the same struct both refuse or both accept, and then with equal ops.
// (Unmarshal already refuses trailing data; the member-name case is the
// one tightening that needs excusing.) The scratch comes from the pool and
// goes back, so an input also meets whatever the one before it left.
func FuzzDecodeBatch(f *testing.F) {
	deep := func(n int) string { return strings.Repeat("[", n) + strings.Repeat("]", n) }
	for _, seed := range []string{
		`{"ops":[{"kind":"add","key":"alice","delta":-5},{"kind":"put","key":"bob","value":"5"}]}`,
		` { "ops" : [ { "kind" : "get" , "key" : "a" } ] } ` + "\r\n\t",
		`{"ops":[{"kind":"put","key":"q\"\\\/\b\f\n\r\tz","value":"\u00e9\u4e16\u0000"}]}`,
		`{"ops":[{"kind":"put","key":"\ud83d\ude00","value":"\ud83d"},{"key":"\ude00\ud83dx\ud83d\u0041"}]}`,
		`{"ops":[{"k\u0065y":"escaped name","kind":"g\u0065t"}]}`,
		"{\"ops\":[{\"key\":\"raw \xff\xc3 bytes\",\"value\":\"\xe4\xb8\"}]}",
		`{"ops":[{"key":"a","key":"b","kind":"get","kind":null}],"ops":[{"value":"kept kind and key"},{"key":"new"}]}`,
		`{"ops":[{"key":"a"},{"key":"b"},{"key":"c"}],"ops":[null],"ops":[{"value":"x"},{"value":"y"},{"value":"z"}]}`,
		`{"ops":[{"key":"a"}],"ops":null,"ops":[{"value":"fresh"}]}`,
		`{"junk":{"a":[1,2.5e-3,true,false,null,{"b":"c"}],"d":{}},"ops":[{"kind":"get","key":"a","junk":[[]]}],"more":-0.0}`,
		`{"ops":[{"kind":"get","key":"a","junk":` + deep(maxNesting-3) + `}]}`,
		`{"ops":[{"kind":"get","key":"a","junk":` + deep(maxNesting-2) + `}]}`,
		`{"junk":` + deep(maxNesting-1) + `}`,
		`{"junk":` + deep(maxNesting) + `}`,
		`{"ops":[{"kind":"add","key":"a","delta":1e3}]}`,
		`{"ops":[{"kind":"add","key":"a","delta":1.5}]}`,
		`{"ops":[{"kind":"add","key":"a","delta":-0}]}`,
		`{"ops":[{"kind":"add","key":"a","delta":9223372036854775807},{"delta":-9223372036854775808}]}`,
		`{"ops":[{"kind":"add","key":"a","delta":9223372036854775808}]}`,
		`{"ops":[{"kind":"add","key":"a","delta":-9223372036854775809}]}`,
		`{"ops":[{"kind":"add","key":"a","delta":"5"}]}`,
		`{"ops":[{"kind":"add","key":"a","delta":01}]}`,
		`{"ops":[{"kind":5}]}`, `{"ops":[{"key":["a"]}]}`, `{"ops":{"kind":"get"}}`, `{"ops":[[]]}`, `{"ops":["get"]}`,
		`{"ops":[null,{},null]}`, `{"ops":[]}`, `{"ops":null}`, `{}`, `null`, `[]`, `"ops"`, `7`, ``, ` `,
		`{"ops":[{"kind":"get","key":"a"}]}garbage`, `{"ops":[{"kind":"get","key":"a"}]}{}`, `{"ops":[{"kind":"get","key":"a"},]}`,
		`{"ops":[{"kind":"get","key":"a"}]`, `{"ops":[{"kind":"get" "key":"a"}]}`, `{"ops":[{"key":"unterminated}]}`,
		`{"ops":[{"key":"bad \x escape"}]}`, `{"ops":[{"key":"bad \u12g4 escape"}]}`, "{\"ops\":[{\"key\":\"raw\nnewline\"}]}",
		`{"ops":[{"key":tru}]}`, `{"a":nul}`, `{"a":-}`, `{"a":1.}`, `{"a":1e}`, `{"a":.5}`, `{"a":+1}`, "{\"a\":\x00}",
		`{"OPS":[{"kind":"get","key":"a"}]}`, `{"ops":[{"Kind":"get","KEY":"a"}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var want struct {
			Ops []Op `json:"ops"`
		}
		wantErr := json.Unmarshal(body, &want)
		sc := getScratch()
		defer sc.release()
		sc.load(body)
		got, ok := sc.decodeBatch()
		if (ok == (wantErr == nil) && (!ok || slices.Equal(got, want.Ops))) || hasMiscasedMember(body) {
			return
		}
		t.Fatalf("body %q:\ncodec         %+v, accepted %v\nencoding/json %+v, error %v", body, got, ok, want.Ops, wantErr)
	})
}

// FuzzDecodeOp is FuzzDecodeBatch for the one-op bodies of /put and
// /delete, whose known members are a subset: the rest must be skipped
// whatever their type.
func FuzzDecodeOp(f *testing.F) {
	for _, seed := range []string{
		`{"key":"a","value":"b"}`, `{"key":"a","value":null,"kind":7,"delta":"x"}`, `{"value":"b","key":"\u00e9"}`, `null`,
		`{"key":"a","value":"b"}garbage`, `{"key":5}`, `{"key":"a","value":{}}`, `{"key":"a","key":"b"}`, `[{"key":"a"}]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var put struct {
			Key   string `json:"key"`
			Value string `json:"value"`
		}
		var del struct {
			Key string `json:"key"`
		}
		putErr, delErr := json.Unmarshal(body, &put), json.Unmarshal(body, &del)
		if hasMiscasedMember(body) {
			return
		}
		sc := getScratch()
		defer sc.release()
		for _, c := range []struct {
			known   uint8
			want    Op
			wantErr error
		}{
			{fKey | fValue, Op{Key: put.Key, Value: put.Value}, putErr},
			{fKey, Op{Key: del.Key}, delErr},
		} {
			sc.load(body)
			clear(sc.ops) // each decode stands for a request of its own
			got, ok := sc.decodeOp(c.known)
			if ok != (c.wantErr == nil) || (ok && got[0] != c.want) {
				t.Fatalf("body %q, members %05b:\ncodec         %+v, accepted %v\nencoding/json %+v, error %v", body, c.known, got[0], ok, c.want, c.wantErr)
			}
		}
	})
}

// FuzzEncodeReply: for any key and value — quotes, control bytes, <>&,
// U+2028/9, invalid UTF-8 — every reply the encoder builds is byte for
// byte what encoding/json wrote for the shape it replaced.
func FuzzEncodeReply(f *testing.F) {
	for i, k := range awkwardStrings {
		f.Add(k, awkwardStrings[len(awkwardStrings)-1-i], i%2 == 0)
	}
	f.Fuzz(checkReplies)
}
