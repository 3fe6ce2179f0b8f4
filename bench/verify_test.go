package main

import (
	"encoding/json"
	"testing"
)

// reply marshals v the way the server's writeJSON does.
func reply(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

func TestCheckReplyOracles(t *testing.T) {
	spec := &serveSpec{keys: 150}
	get := &request{kind: kGet, idx: 42}
	put := &request{kind: kPut, idx: 42}
	batch := &request{kind: kBatch, batch: []uint32{3, 9, 3}}
	scan := &request{kind: kScan, idx: 148} // only 2 keys left
	results := func(keys ...int) map[string]any {
		var rs []OpResult
		for _, k := range keys {
			rs = append(rs, OpResult{Key: keyOf(k), Found: true, Value: "-17"})
		}
		return map[string]any{"results": rs}
	}
	page := func(count int, idx ...int) map[string]any {
		kvs := []KV{}
		for _, i := range idx {
			kvs = append(kvs, KV{Key: keyOf(i), Value: indexValue(i)})
		}
		return map[string]any{"kvs": kvs, "count": count}
	}
	for _, c := range []struct {
		name   string
		rq     *request
		status int
		body   []byte
		ok     bool
	}{
		{"get", get, 200, reply(t, map[string]any{"key": keyOf(42), "value": "v42", "found": true}), true},
		{"get wrong value", get, 200, reply(t, map[string]any{"key": keyOf(42), "value": "v43", "found": true}), false},
		{"get not found", get, 200, reply(t, map[string]any{"key": keyOf(42), "value": "", "found": false}), false},
		{"get 500", get, 500, reply(t, map[string]string{"error": "boom"}), false},
		{"get truncated", get, 200, []byte(`{"found":true,"value":"v42"`), false},
		{"get escaped", get, 200, []byte(`{"found":true,"value":"v4\u0032"}`), false},
		{"put", put, 200, reply(t, map[string]any{"ok": true}), true},
		{"put refused", put, 200, reply(t, map[string]any{"ok": false}), false},
		{"batch", batch, 200, reply(t, results(3, 9, 3)), true},
		{"batch reordered", batch, 200, reply(t, results(9, 3, 3)), false},
		{"batch short", batch, 200, reply(t, results(3, 9)), false},
		{"batch long", batch, 200, reply(t, results(3, 9, 3, 3)), false},
		{"batch non-integer", batch, 200, reply(t, map[string]any{"results": []OpResult{
			{Key: keyOf(3), Found: true, Value: "1"}, {Key: keyOf(9), Found: true, Value: "x"}, {Key: keyOf(3), Found: true, Value: "1"}}}), false},
		{"batch missing key", batch, 200, reply(t, map[string]any{"results": []OpResult{
			{Key: keyOf(3), Found: true, Value: "1"}, {Key: keyOf(9), Value: "1"}, {Key: keyOf(3), Found: true, Value: "1"}}}), false},
		{"scan tail", scan, 200, reply(t, page(2, 148, 149)), true},
		{"scan gap", scan, 200, reply(t, page(2, 148, 150)), false},
		{"scan short", scan, 200, reply(t, page(1, 148)), false},
		{"scan count lies", scan, 200, reply(t, page(3, 148, 149)), false},
		{"scan empty", scan, 200, reply(t, page(0)), false},
	} {
		if reason := checkReply(spec, c.rq, c.status, c.body); (reason == "") != c.ok {
			t.Errorf("%s: checkReply = %q, want ok=%v", c.name, reason, c.ok)
		}
	}
}

// The verifier runs inside the measured process, so it must not show up
// in allocs_per_op.
func TestCheckReplyDoesNotAllocate(t *testing.T) {
	spec := &serveSpec{keys: 1000}
	rq := &request{kind: kScan, idx: 10}
	kvs := []KV{}
	for i := 10; i < 110; i++ {
		kvs = append(kvs, KV{Key: keyOf(i), Value: indexValue(i)})
	}
	body := reply(t, map[string]any{"kvs": kvs, "count": len(kvs)})
	if reason := checkReply(spec, rq, 200, body); reason != "" {
		t.Fatal(reason)
	}
	if n := testing.AllocsPerRun(100, func() { checkReply(spec, rq, 200, body) }); n != 0 {
		t.Errorf("checkReply allocates %v times per reply", n)
	}
}

func TestWalkJSONRejectsMalformed(t *testing.T) {
	c := &replyCheck{rq: &request{}}
	for _, doc := range []string{``, `{`, `{"a"}`, `{"a":}`, `{"a":1,}`, `[1 2]`, `{"a":1}{`, `{a:1}`, `"open`, `[,1]`} {
		if c.walkJSON([]byte(doc)) {
			t.Errorf("walkJSON accepted %q", doc)
		}
	}
	for _, doc := range []string{`{}`, `[]`, ` {"a": [1, {"b": null}], "c": "d"} `, `-1.5e3`, `true`} {
		if !c.walkJSON([]byte(doc)) {
			t.Errorf("walkJSON rejected %q", doc)
		}
	}
}
