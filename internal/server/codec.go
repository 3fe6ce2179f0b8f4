package server

// The wire codec of the five data endpoints (/get, /put, /delete, /scan,
// /batch). Their JSON is a fixed schema — four member names in, six out —
// so it is decoded by a small scanner straight into a pooled []Op and
// encoded by appending into a pooled buffer: no reflection, no per-request
// encoder, one Write per reply. encoding/json stays the reference the
// tests hold this file to (codec_fuzz_test.go) and the codec of the
// open-ended replies (/stats, /healthz, errors; see writeJSON).
//
// Decoding accepts exactly what encoding/json accepted into the same
// structs — unknown members skipped, null leaving a member alone, the last
// of duplicate members winning, escapes and surrogate pairs decoded,
// invalid UTF-8 coerced to U+FFFD, an integer delta or a 400 — with two
// tightenings: member names match in their exact case only, and nothing
// but white space may follow the value.
//
// Retention. The request body, the decoded ops and the reply live in a
// scratch that goes back to a pool when the handler returns, so nothing the
// store keeps may alias them: every key, value and unknown kind handed to
// the router is its own string, copied out of the body once.

import (
	"io"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

const (
	// maxBodyBytes caps a request body; a longer one is refused with 413
	// before any transaction starts.
	maxBodyBytes = 1 << 20
	// maxPooledBytes and maxPooledOps bound what an idle scratch may pin: a
	// scratch that one large request grew past either is left to the
	// collector instead of going back to the pool.
	maxPooledBytes = 64 << 10
	maxPooledOps   = 1024
	// maxNesting is how many containers deep a body may nest, counting the
	// enclosing ones (encoding/json's limit).
	maxNesting = 10000
)

// The members of the request schema, as bits so a handler can name the
// ones its body has: an absent bit's member is skipped like any unknown.
const (
	fOps = 1 << iota
	fKind
	fKey
	fValue
	fDelta

	opFields = fKind | fKey | fValue | fDelta
)

func fieldOf(name []byte) uint8 {
	switch string(name) {
	case "ops":
		return fOps
	case "kind":
		return fKind
	case "key":
		return fKey
	case "value":
		return fValue
	case "delta":
		return fDelta
	}
	return 0
}

// kindString resolves the four op kinds to their constants; only an
// unknown kind (which ValidateOps will quote back) costs a string.
func kindString(b []byte) string {
	switch string(b) {
	case "get":
		return "get"
	case "put":
		return "put"
	case "delete":
		return "delete"
	case "add":
		return "add"
	}
	return string(b)
}

// scratch is one request's codec state: the body, the ops decoded from it
// and the reply being built.
type scratch struct {
	in  []byte // request body
	pos int    // decode position in in
	tmp []byte // unescaped form of the string last decoded, when it had escapes
	// ops[:n] is the decoded batch. Elements past n were written earlier
	// in this request, by a previous "ops" member: a later one decodes
	// over them in place, as encoding/json does into a reused slice.
	ops  []Op
	n    int
	nest []byte // kinds of the open containers inside a skipped value
	out  []byte // encoded reply
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

// release recycles s, dropping the request's strings.
func (s *scratch) release() {
	if cap(s.in) > maxPooledBytes || cap(s.tmp) > maxPooledBytes || cap(s.out) > maxPooledBytes || cap(s.ops) > maxPooledOps {
		return
	}
	clear(s.ops)
	s.ops, s.n = s.ops[:0], 0
	scratchPool.Put(s)
}

// readBody reads r's body into s.in and returns 0, or the status and
// message to refuse the request with: 413 for a body over maxBodyBytes (by
// its declared length, or once that many bytes have arrived), 400 for one
// that fails mid-read.
func (s *scratch) readBody(r *http.Request) (status int, msg string) {
	const tooLarge = "request body too large"
	if r.ContentLength > maxBodyBytes {
		return http.StatusRequestEntityTooLarge, tooLarge
	}
	buf := s.in[:0]
	s.pos = 0
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, max(512, int(r.ContentLength)-len(buf)+1))
		}
		n, err := r.Body.Read(buf[len(buf):min(cap(buf), maxBodyBytes+1)])
		buf = buf[:len(buf)+n]
		s.in = buf
		switch {
		case len(buf) > maxBodyBytes:
			return http.StatusRequestEntityTooLarge, tooLarge
		case err == io.EOF:
			return 0, ""
		case err != nil:
			return http.StatusBadRequest, "request body could not be read"
		}
	}
}

// decodeBatch decodes a /batch body, {"ops": [op...]}, into s.ops[:s.n].
func (s *scratch) decodeBatch() ([]Op, bool) {
	ok := s.object(nil, fOps, 0) && s.atEnd()
	return s.ops[:s.n], ok
}

// decodeOp decodes a one-op body (/put, /delete), whose members are the
// known ones, into a batch of that one op.
func (s *scratch) decodeOp(known uint8) ([]Op, bool) {
	if len(s.ops) == 0 {
		s.ops = append(s.ops, Op{})
	}
	return s.ops[:1], s.object(&s.ops[0], known, 0) && s.atEnd()
}

// skipSpace moves past white space and returns the byte there, 0 at the
// end of the body.
func (s *scratch) skipSpace() byte {
	for s.pos < len(s.in) {
		switch c := s.in[s.pos]; c {
		case ' ', '\t', '\r', '\n':
			s.pos++
		default:
			return c
		}
	}
	return 0
}

func (s *scratch) atEnd() bool { return s.skipSpace() == 0 && s.pos == len(s.in) }

// lit consumes the literal word.
func (s *scratch) lit(word string) bool {
	if len(s.in)-s.pos < len(word) || string(s.in[s.pos:s.pos+len(word)]) != word {
		return false
	}
	s.pos += len(word)
	return true
}

// object decodes a JSON object, or a null in its place, which changes
// nothing. Of its members, those named in known are stored — strings and
// delta into op, the "ops" array into s.ops — where a null leaves op's
// member as it is and empties s.ops, and any other type fails; all other
// members are skipped. depth counts the containers around the object.
func (s *scratch) object(op *Op, known uint8, depth int) bool {
	switch s.skipSpace() {
	case 'n':
		return s.lit("null")
	case '{':
		s.pos++
	default:
		return false
	}
	if s.skipSpace() == '}' {
		s.pos++
		return true
	}
	for {
		if s.skipSpace() != '"' {
			return false
		}
		name, ok := s.str()
		if !ok {
			return false
		}
		f := fieldOf(name) & known // name may sit in s.tmp, which the value's string reuses
		if s.skipSpace() != ':' {
			return false
		}
		s.pos++
		switch c := s.skipSpace(); {
		case f == 0:
			ok = s.skipValue(depth + 1)
		case c == 'n':
			if ok = s.lit("null"); ok && f == fOps {
				clear(s.ops)
				s.ops, s.n = s.ops[:0], 0
			}
		case f == fOps:
			ok = c == '[' && s.opsArray(depth+1)
		case f == fDelta:
			op.Delta, ok = s.int64()
		case c == '"':
			var v []byte
			if v, ok = s.str(); ok {
				switch f {
				case fKind:
					op.Kind = kindString(v)
				case fKey:
					op.Key = string(v)
				case fValue:
					op.Value = string(v)
				}
			}
		default:
			ok = false
		}
		if !ok {
			return false
		}
		switch s.skipSpace() {
		case ',':
			s.pos++
		case '}':
			s.pos++
			return true
		default:
			return false
		}
	}
}

// opsArray decodes the array at s.pos into s.ops[:s.n], element i over
// whatever an earlier "ops" member of this request left at i.
func (s *scratch) opsArray(depth int) bool {
	s.pos++
	s.n = 0
	if s.skipSpace() == ']' {
		s.pos++
		return true
	}
	for {
		if s.n == len(s.ops) {
			s.ops = append(s.ops, Op{})
		}
		if !s.object(&s.ops[s.n], opFields, depth+1) {
			return false
		}
		s.n++
		switch s.skipSpace() {
		case ',':
			s.pos++
		case ']':
			s.pos++
			return true
		default:
			return false
		}
	}
}

// str decodes the JSON string at s.pos (which holds its opening quote)
// and moves past it. The result is a piece of the body when the string is
// plain ASCII, else s.tmp; either way it is only good until the next call.
func (s *scratch) str() ([]byte, bool) {
	in := s.in
	i := s.pos + 1
	start := i
	for i < len(in) {
		c := in[i]
		if c == '"' {
			s.pos = i + 1
			return in[start:i], true
		}
		if c == '\\' || c < ' ' || c >= utf8.RuneSelf {
			break
		}
		i++
	}
	tmp := append(s.tmp[:0], in[start:i]...)
	for i < len(in) {
		switch c := in[i]; {
		case c == '"':
			s.pos, s.tmp = i+1, tmp
			return tmp, true
		case c < ' ':
			return nil, false
		case c == '\\':
			if i++; i == len(in) {
				return nil, false
			}
			switch c := in[i]; c {
			case '"', '\\', '/':
				tmp = append(tmp, c)
			case 'b':
				tmp = append(tmp, '\b')
			case 'f':
				tmp = append(tmp, '\f')
			case 'n':
				tmp = append(tmp, '\n')
			case 'r':
				tmp = append(tmp, '\r')
			case 't':
				tmp = append(tmp, '\t')
			case 'u':
				r := hex4(in[i+1:])
				if r < 0 {
					return nil, false
				}
				i += 4
				if utf16.IsSurrogate(r) {
					// Half a pair: the other half must be the very next
					// escape, or this one reads as U+FFFD on its own.
					r2 := rune(-1)
					if i+2 < len(in) && in[i+1] == '\\' && in[i+2] == 'u' {
						r2 = hex4(in[i+3:])
					}
					if r = utf16.DecodeRune(r, r2); r != unicode.ReplacementChar {
						i += 6
					}
				}
				tmp = utf8.AppendRune(tmp, r)
			default:
				return nil, false
			}
			i++
		case c < utf8.RuneSelf:
			tmp = append(tmp, c)
			i++
		default:
			r, size := utf8.DecodeRune(in[i:]) // invalid UTF-8 reads as U+FFFD
			tmp = utf8.AppendRune(tmp, r)
			i += size
		}
	}
	return nil, false
}

// hex4 reads four hex digits, -1 when b does not start with four.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// number moves past the JSON number at s.pos and returns its text.
func (s *scratch) number() ([]byte, bool) {
	in, i := s.in, s.pos
	digits := func() bool {
		from := i
		for i < len(in) && '0' <= in[i] && in[i] <= '9' {
			i++
		}
		return i > from
	}
	if i < len(in) && in[i] == '-' {
		i++
	}
	if i < len(in) && in[i] == '0' {
		i++
	} else if !digits() {
		return nil, false
	}
	if i < len(in) && in[i] == '.' {
		if i++; !digits() {
			return nil, false
		}
	}
	if i < len(in) && (in[i] == 'e' || in[i] == 'E') {
		if i++; i < len(in) && (in[i] == '+' || in[i] == '-') {
			i++
		}
		if !digits() {
			return nil, false
		}
	}
	text := in[s.pos:i]
	s.pos = i
	return text, true
}

// int64 decodes the number at s.pos as an int64: a fraction, an exponent
// or an overflow fails, as they do for encoding/json into an int64 field.
func (s *scratch) int64() (int64, bool) {
	text, ok := s.number()
	if !ok {
		return 0, false
	}
	neg := text[0] == '-'
	if neg {
		text = text[1:]
	}
	var n uint64
	for _, c := range text {
		d := uint64(c - '0')
		if c < '0' || c > '9' || n > (1<<63-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	if neg {
		return -int64(n), true // n ≤ 1<<63, and -int64(1<<63) is MinInt64
	}
	return int64(n), n < 1<<63
}

// skipValue moves past any one JSON value, checking its syntax. depth
// counts the containers around it. The walk keeps the kinds of the
// value's own open containers in s.nest instead of recursing, so a deeply
// nested body costs bytes, not stack.
func (s *scratch) skipValue(depth int) bool {
	nest := s.nest[:0]
	for {
		// A value starts here.
		ok := true
		switch c := s.skipSpace(); c {
		case '{', '[':
			if depth+len(nest) == maxNesting {
				return false
			}
			s.pos++
			if s.skipSpace() == c+2 { // '}' is '{'+2 and ']' is '['+2
				s.pos++
				break
			}
			nest = append(nest, c)
			if c == '{' && !s.skipName() {
				return false
			}
			continue
		case '"':
			_, ok = s.str()
		case 't':
			ok = s.lit("true")
		case 'f':
			ok = s.lit("false")
		case 'n':
			ok = s.lit("null")
		default:
			_, ok = s.number()
		}
		if !ok {
			return false
		}
		// A value ended here: close containers until one goes on.
		for more := false; !more; {
			if len(nest) == 0 {
				s.nest = nest // keep what it grew to
				return true
			}
			switch open := nest[len(nest)-1]; s.skipSpace() {
			case open + 2:
				s.pos++
				nest = nest[:len(nest)-1]
			case ',':
				s.pos++
				if open == '{' && !s.skipName() {
					return false
				}
				more = true
			default:
				return false
			}
		}
	}
}

// skipName moves past a member name and its colon.
func (s *scratch) skipName() bool {
	if s.skipSpace() != '"' {
		return false
	}
	if _, ok := s.str(); !ok || s.skipSpace() != ':' {
		return false
	}
	s.pos++
	return true
}

// queryParam returns the first value of name in a raw query, as
// r.URL.Query().Get(name) would — malformed pairs are ignored, not
// errors — but without building the map: it only unescapes, and so only
// allocates, when the name or its value holds a % or a +.
func queryParam(raw, name string) string {
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		if k, ok := unescaped(k); !ok || k != name {
			continue
		}
		if v, ok := unescaped(v); ok {
			return v
		}
	}
	return ""
}

func unescaped(s string) (string, bool) {
	if !strings.ContainsAny(s, "%+") {
		return s, true
	}
	s, err := url.QueryUnescape(s)
	return s, err == nil
}

// The replies. Each is appended to s.out in full before anything is
// written, with the member order, the omitted empty "value" of a batch
// result, the null of an empty scan and the trailing newline that
// encoding/json gave the structs and maps these replaced.

func (s *scratch) replyGet(key, value string, found bool) {
	b := append(s.out[:0], `{"found":`...)
	b = strconv.AppendBool(b, found)
	b = appendString(append(b, `,"key":`...), key)
	b = appendString(append(b, `,"value":`...), value)
	s.out = append(b, "}\n"...)
}

func (s *scratch) replyPut() {
	s.out = append(s.out[:0], "{\"ok\":true}\n"...)
}

func (s *scratch) replyDelete(found bool) {
	b := append(s.out[:0], `{"found":`...)
	b = strconv.AppendBool(b, found)
	s.out = append(b, "}\n"...)
}

func (s *scratch) replyScan(kvs []KV) {
	b := append(s.out[:0], `{"count":`...)
	b = strconv.AppendInt(b, int64(len(kvs)), 10)
	b = append(b, `,"kvs":`...)
	if kvs == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, kv := range kvs {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(append(b, `{"key":`...), kv.Key)
			b = appendString(append(b, `,"value":`...), kv.Value)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	s.out = append(b, "}\n"...)
}

func (s *scratch) replyBatch(res []OpResult) {
	b := append(s.out[:0], `{"results":[`...)
	for i, r := range res {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(append(b, `{"key":`...), r.Key)
		b = append(b, `,"found":`...)
		b = strconv.AppendBool(b, r.Found)
		if r.Value != "" {
			b = appendString(append(b, `,"value":`...), r.Value)
		}
		b = append(b, '}')
	}
	s.out = append(b, "]}\n"...)
}

var jsonContentType = []string{"application/json"}

// send writes the reply built in s.out: the header value is a shared
// slice (net/http only reads it) and the body is one Write.
func (s *scratch) send(w http.ResponseWriter) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(s.out) // a client that went away is not the handler's error
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string, escaped byte for byte as
// encoding/json's default encoder escapes: the two-character escapes,
// \u00XX for the other control bytes and for <, > and &, U+2028 and U+2029 as
// \u2028 and \u2029, and \ufffd for each byte of invalid UTF-8.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '\\', '"':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}
