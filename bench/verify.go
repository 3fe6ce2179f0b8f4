package main

import (
	"strconv"
)

// The oracles: every reply is checked against what the generator knows
// the answer must be. A check returns "" or the reason the reply is
// wrong; a wrong reply is a failed operation like any non-200.
//
// Replies that crossed the codec are checked on their bytes by walkJSON,
// which does not allocate, so that the verifier's own cost stays out of
// the per-depth allocation counts.

// walkJSON calls w.visit for every value in doc. what is '"' for a string
// (val is its contents, which never hold an escape), '0' for a number or
// literal (val is its text), and '{', '[', '}' or ']' on entering and on
// leaving an object or array. depth is the number of enclosing containers
// and key the member name (nil inside an array). It reports whether doc
// is one well-formed value of the subset this benchmark's replies use: no
// string escapes. The visitor is a method of the walker's own type, not a
// func value, so that a check stays on the stack.
func (w *replyCheck) walkJSON(doc []byte) bool {
	w.b, w.i = doc, 0
	return w.value(0, nil) && w.skipSpace() == len(doc)
}

func (w *replyCheck) skipSpace() int {
	for w.i < len(w.b) && (w.b[w.i] == ' ' || w.b[w.i] == '\n' || w.b[w.i] == '\t' || w.b[w.i] == '\r') {
		w.i++
	}
	return w.i
}

// str consumes a string and returns its contents.
func (w *replyCheck) str() ([]byte, bool) {
	start := w.i + 1
	for j := start; j < len(w.b); j++ {
		switch w.b[j] {
		case '\\':
			return nil, false
		case '"':
			w.i = j + 1
			return w.b[start:j], true
		}
	}
	return nil, false
}

func (w *replyCheck) value(depth int, key []byte) bool {
	if w.skipSpace() == len(w.b) {
		return false
	}
	switch c := w.b[w.i]; c {
	case '"':
		s, ok := w.str()
		if ok {
			w.visit(depth, key, '"', s)
		}
		return ok
	case '{', '[':
		end := c + 2 // '}' is '{'+2 and ']' is '['+2
		w.visit(depth, key, c, nil)
		w.i++
		for first := true; ; first = false {
			if w.skipSpace() == len(w.b) {
				return false
			}
			if w.b[w.i] == end {
				w.visit(depth, key, end, nil)
				w.i++
				return true
			}
			if !first {
				if w.b[w.i] != ',' {
					return false
				}
				w.i++
				w.skipSpace()
			}
			var member []byte
			if c == '{' {
				var ok bool
				if w.i == len(w.b) || w.b[w.i] != '"' {
					return false
				}
				if member, ok = w.str(); !ok {
					return false
				}
				if w.skipSpace() == len(w.b) || w.b[w.i] != ':' {
					return false
				}
				w.i++
			}
			if !w.value(depth+1, member) {
				return false
			}
		}
	default: // number, true, false, null
		start := w.i
		for w.i < len(w.b) && w.b[w.i] != ',' && w.b[w.i] != '}' && w.b[w.i] != ']' && w.b[w.i] > ' ' {
			w.i++
		}
		if w.i == start {
			return false
		}
		w.visit(depth, key, '0', w.b[start:w.i])
		return true
	}
}

// isIndexValue reports whether v is indexValue(i), without building it.
func isIndexValue[T string | []byte](v T, i int) bool {
	if len(v) < 2 || v[0] != 'v' || (v[1] == '0' && len(v) > 2) {
		return false
	}
	n := 0
	for j := 1; j < len(v); j++ {
		if v[j] < '0' || v[j] > '9' || n > 1<<40 {
			return false
		}
		n = n*10 + int(v[j]-'0')
	}
	return n == i
}

func isInt[T string | []byte](s T) bool {
	if len(s) > 0 && s[0] == '-' {
		s = s[1:]
	}
	if len(s) == 0 {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

// checkReply checks an HTTP reply to rq. The reply shapes are the wire
// format of internal/server's handlers:
//
//	get   {"found":true,"key":K,"value":V}
//	put   {"ok":true}
//	batch {"results":[{"key":K,"found":true,"value":V}, ...]}
//	scan  {"count":N,"kvs":[{"key":K,"value":V}, ...]}
func checkReply(spec *serveSpec, rq *request, status int, body []byte) string {
	if status != 200 {
		return "status " + strconv.Itoa(status)
	}
	c := replyCheck{rq: rq, count: -1}
	switch {
	case !c.walkJSON(body):
		return "malformed reply"
	case c.reason != "":
		return c.reason
	}
	switch rq.kind {
	case kGet:
		return checkGet(rq, c.found, c.val)
	case kPut:
		if !c.ok {
			return "put: not ok"
		}
	case kBatch:
		if c.elems != len(rq.batch) {
			return "batch: wrong result count"
		}
	case kScan:
		if want := min(scanLimit, spec.keys-rq.idx); c.elems != want || c.count != want {
			return "scan: wrong count"
		}
	}
	return ""
}

// replyCheck walks one reply and gathers what the oracles need from it.
type replyCheck struct {
	b []byte // the reply
	i int    // how far the walk has read

	rq        *request
	ok, found bool   // put: ok; get: found
	elems     int    // batch, scan: array elements seen
	count     int    // scan: the count member
	key, val  []byte // members of the element being read (val also: get's value)
	elemFound bool
	reason    string // the first element found wrong
}

func (c *replyCheck) visit(depth int, member []byte, what byte, v []byte) {
	switch {
	case depth == 1 && string(member) == "ok":
		c.ok = string(v) == "true"
	case depth == 1 && string(member) == "found":
		c.found = string(v) == "true"
	case depth == 1 && string(member) == "value":
		c.val = v
	case depth == 1 && string(member) == "count":
		c.count, _ = strconv.Atoi(string(v))
	case depth == 2 && what == '{':
		c.key, c.val, c.elemFound = nil, nil, false
	case depth == 3 && string(member) == "key":
		c.key = v
	case depth == 3 && string(member) == "value":
		c.val = v
	case depth == 3 && string(member) == "found":
		c.elemFound = string(v) == "true"
	case depth == 2 && what == '}':
		reason := ""
		if c.rq.kind == kBatch {
			reason = checkResult(c.rq, c.elems, keyIndex(c.key), c.elemFound, isInt(c.val))
		} else {
			reason = checkKV(c.rq.idx+c.elems, keyIndex(c.key), c.val)
		}
		if c.reason == "" {
			c.reason = reason
		}
		c.elems++
	}
}

// checkGet checks a point read: the key exists and holds its index value.
func checkGet[T string | []byte](rq *request, found bool, val T) string {
	if !found || !isIndexValue(val, rq.idx) {
		return "get: wrong value"
	}
	return ""
}

// checkResult checks the j-th result of a batch: request order, found,
// an integer value.
func checkResult(rq *request, j, keyIdx int, found, intValue bool) string {
	switch {
	case j >= len(rq.batch):
		return "batch: wrong result count"
	case keyIdx != int(rq.batch[j]):
		return "batch: results out of request order"
	case !found:
		return "batch: key not found"
	case !intValue:
		return "batch: value not an integer"
	}
	return ""
}

// checkKV checks one scanned pair: the keyspace is dense and static, so
// the n-th key of a page is known, and so is its value.
func checkKV[T string | []byte](want, keyIdx int, val T) string {
	switch {
	case keyIdx != want:
		return "scan: keys not the dense ascending run"
	case !isIndexValue(val, want):
		return "scan: wrong value"
	}
	return ""
}

// checkResults checks a batch's results as the router returns them.
func checkResults(rq *request, res []OpResult) string {
	if len(res) != len(rq.batch) {
		return "batch: wrong result count"
	}
	for j, r := range res {
		if reason := checkResult(rq, j, keyIndex(r.Key), r.Found, isInt(r.Value)); reason != "" {
			return reason
		}
	}
	return ""
}

// checkScan checks a page as the router returns it.
func checkScan(spec *serveSpec, rq *request, kvs []KV) string {
	if len(kvs) != min(scanLimit, spec.keys-rq.idx) {
		return "scan: wrong count"
	}
	for n, kv := range kvs {
		if reason := checkKV(rq.idx+n, keyIndex(kv.Key), kv.Value); reason != "" {
			return reason
		}
	}
	return ""
}
