// Request decoding without encoding/json: the server accepts exactly three
// request shapes — single-query GET parameters (q / items / k), the search
// batch body {"queries": [...], "max_items": n}, and the recommend batch
// body {"sessions": [[...], ...], "k": n} — so a small hand-rolled scanner
// over pooled byte buffers replaces the reflection decoder on the hot
// path. The scanner itself performs no allocations: request bodies land in
// a pooled buffer, search batch queries decode as byte-slice views into it
// (or into a pooled arena when they needed unescaping), and sessions
// decode into pooled [][]int storage (inner slices revived), so a batch
// body decodes with zero allocations in steady state where reflection
// decoding paid dozens. GET parameters are resolved as substrings of the
// raw query string, unescaping only when an escape is actually present.
package serve

import (
	"bytes"
	"io"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"unicode/utf16"
	"unicode/utf8"
)

// reqScratch is the pooled per-request working memory of the decoding
// path: the body buffer, the string-unescape buffer, and the decoded
// request structures, all recycled across requests. Batch queries decode
// as byte slices — views into body for escape-free strings, views into
// arena for unescaped ones — so no per-query string is ever materialized.
type reqScratch struct {
	body     []byte
	strbuf   []byte
	arena    []byte // stable storage for unescaped query bytes
	ids      []int
	queries  [][]byte
	sessions [][]int
}

var reqPool = sync.Pool{New: func() any { return &reqScratch{} }}

func getScratch() *reqScratch { return reqPool.Get().(*reqScratch) }

// putScratch recycles a scratch unless its body buffer has ballooned past
// the request-size cap (append doubling while reading a max-size body can
// overshoot it); a rare huge request should not pin megabytes per pool
// slot, mirroring the encode-side codec pool's cap.
func putScratch(sc *reqScratch) {
	if cap(sc.body) <= maxBatchBody && cap(sc.arena) <= maxBatchBody {
		reqPool.Put(sc)
	}
}

// appendReadAll reads r to EOF into dst (appending), growing it as needed.
func appendReadAll(dst []byte, r io.Reader) ([]byte, error) {
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// queryParam returns url.ParseQuery(rawQuery).Get(key) for a non-empty
// key: the first value of key in a raw (still escaped) URL query, or "" —
// callers treat an absent value and an empty one alike. Like ParseQuery it
// unescapes keys as well as values, drops a pair holding a ';' or a
// malformed escape and goes on scanning, and gives a bare key the value
// "". A pair whose key and value hold no '%' or '+' — the common case —
// is compared and returned as a substring of rawQuery without allocating.
func queryParam(rawQuery, key string) string {
	for rawQuery != "" {
		var pair string
		pair, rawQuery, _ = strings.Cut(rawQuery, "&")
		if strings.IndexByte(pair, ';') >= 0 {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		if strings.ContainsAny(k, "%+") {
			if u, err := url.QueryUnescape(k); err != nil || u != key {
				continue
			}
		} else if k != key {
			continue
		}
		if !strings.ContainsAny(v, "%+") {
			return v
		}
		if u, err := url.QueryUnescape(v); err == nil {
			return u
		}
	}
	return ""
}

// appendItemsParam parses a comma-separated id list ("1,22,3", with blanks
// tolerated like the previous strings.Split loop) into dst without
// allocating. Non-numeric or negative entries error.
func appendItemsParam(dst []int, v string) ([]int, error) {
	for len(v) > 0 {
		var part string
		if i := strings.IndexByte(v, ','); i >= 0 {
			part, v = v[:i], v[i+1:]
		} else {
			part, v = v, ""
		}
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, err := strconv.Atoi(part)
		if err != nil || id < 0 {
			return dst, errBadItems
		}
		dst = append(dst, id)
	}
	return dst, nil
}

// scanError is the scanner's constant error type (no fmt, no allocation).
type scanError string

func (e scanError) Error() string { return string(e) }

const (
	errBadItems     = scanError("bad items parameter")
	errSyntax       = scanError("invalid JSON")
	errNotObject    = scanError("expected a JSON object")
	errNotInt       = scanError("expected an integer")
	errNotString    = scanError("expected a string")
	errNotArray     = scanError("expected an array")
	errUnterminated = scanError("unterminated JSON value")
)

// jscan is a cursor over one request body.
type jscan struct {
	b      []byte
	i      int
	strbuf []byte // unescape scratch, borrowed from the reqScratch
	slow   bool   // last parseStringBytes took the unescape path (bytes alias strbuf)
}

func (s *jscan) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// peek returns the next non-space byte without consuming it (0 at EOF).
func (s *jscan) peek() byte {
	s.ws()
	if s.i >= len(s.b) {
		return 0
	}
	return s.b[s.i]
}

func (s *jscan) expect(c byte) error {
	if s.peek() != c {
		return errSyntax
	}
	s.i++
	return nil
}

// parseStringBytes decodes the next JSON string. Strings free of escapes
// and of invalid UTF-8 come back as a subslice of the body; the rest
// decode into the scratch buffer. Either way the bytes are valid only
// until the next call.
func (s *jscan) parseStringBytes() ([]byte, error) {
	s.slow = false
	if err := s.expect('"'); err != nil {
		return nil, errNotString
	}
	start := s.i
	for s.i < len(s.b) {
		switch c := s.b[s.i]; {
		case c == '"':
			raw := s.b[start:s.i]
			s.i++
			return raw, nil
		case c == '\\':
			return s.parseStringSlow(start)
		case c < 0x20:
			return nil, errSyntax
		case c < utf8.RuneSelf:
			s.i++
		default:
			r, size := utf8.DecodeRune(s.b[s.i:])
			if r == utf8.RuneError && size == 1 {
				return s.parseStringSlow(start)
			}
			s.i += size
		}
	}
	return nil, errUnterminated
}

// parseStringSlow handles strings containing escapes or invalid UTF-8,
// decoding into the reused scratch buffer; each invalid byte becomes
// U+FFFD, as encoding/json decodes it. s.i points at the first backslash
// or invalid byte.
func (s *jscan) parseStringSlow(start int) ([]byte, error) {
	buf := append(s.strbuf[:0], s.b[start:s.i]...)
	for s.i < len(s.b) {
		c := s.b[s.i]
		switch {
		case c == '"':
			s.i++
			s.strbuf = buf
			s.slow = true
			return buf, nil
		case c < 0x20:
			return nil, errSyntax
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRune(s.b[s.i:])
			buf = utf8.AppendRune(buf, r)
			s.i += size
		case c != '\\':
			buf = append(buf, c)
			s.i++
		default:
			s.i++
			if s.i >= len(s.b) {
				return nil, errUnterminated
			}
			esc := s.b[s.i]
			s.i++
			switch esc {
			case '"', '\\', '/':
				buf = append(buf, esc)
			case 'b':
				buf = append(buf, '\b')
			case 'f':
				buf = append(buf, '\f')
			case 'n':
				buf = append(buf, '\n')
			case 'r':
				buf = append(buf, '\r')
			case 't':
				buf = append(buf, '\t')
			case 'u':
				r, err := s.parseHex4()
				if err != nil {
					return nil, err
				}
				if utf16.IsSurrogate(rune(r)) {
					// A high surrogate must pair with a following \uXXXX
					// low surrogate; anything else becomes U+FFFD, the way
					// encoding/json repairs it.
					r2 := rune(utf8.RuneError)
					if s.i+1 < len(s.b) && s.b[s.i] == '\\' && s.b[s.i+1] == 'u' {
						save := s.i
						s.i += 2
						lo, err := s.parseHex4()
						if err != nil {
							return nil, err
						}
						if dec := utf16.DecodeRune(rune(r), rune(lo)); dec != utf8.RuneError {
							r2 = dec
						} else {
							s.i = save // lone surrogate: re-scan the escape normally
						}
					}
					if r2 == utf8.RuneError {
						buf = utf8.AppendRune(buf, utf8.RuneError)
					} else {
						buf = utf8.AppendRune(buf, r2)
					}
				} else {
					buf = utf8.AppendRune(buf, rune(r))
				}
			default:
				return nil, errSyntax
			}
		}
	}
	return nil, errUnterminated
}

// parseHex4 reads 4 hex digits (after "\u").
func (s *jscan) parseHex4() (uint32, error) {
	if s.i+4 > len(s.b) {
		return 0, errUnterminated
	}
	var r uint32
	for j := 0; j < 4; j++ {
		c := s.b[s.i+j]
		switch {
		case c >= '0' && c <= '9':
			r = r<<4 | uint32(c-'0')
		case c >= 'a' && c <= 'f':
			r = r<<4 | uint32(c-'a'+10)
		case c >= 'A' && c <= 'F':
			r = r<<4 | uint32(c-'A'+10)
		default:
			return 0, errSyntax
		}
	}
	s.i += 4
	return r, nil
}

// parseInt reads a JSON number that must be an integer in the int64 range
// (fractions, exponents and out-of-range values are rejected, the way
// encoding/json rejects them for int fields).
func (s *jscan) parseInt() (int, error) {
	s.ws()
	neg := s.i < len(s.b) && s.b[s.i] == '-'
	if neg {
		s.i++
	}
	start := s.i
	var v uint64 // exact up to 19 digits, enough for every int64 magnitude
	for ; s.i < len(s.b) && s.b[s.i] >= '0' && s.b[s.i] <= '9'; s.i++ {
		v = v*10 + uint64(s.b[s.i]-'0')
	}
	if n := s.i - start; n == 0 || n > 19 || v > 1<<63 || (!neg && v == 1<<63) {
		return 0, errNotInt
	}
	if s.i < len(s.b) {
		switch s.b[s.i] {
		case '.', 'e', 'E':
			return 0, errNotInt
		}
	}
	if neg {
		return int(-int64(v)), nil
	}
	return int(v), nil
}

// skipValue consumes any JSON value (used for unknown object fields, which
// the reflection decoder also ignored).
func (s *jscan) skipValue() error {
	switch c := s.peek(); {
	case c == '"':
		_, err := s.parseStringBytes()
		return err
	case c == '{' || c == '[':
		open, close := c, byte('}')
		if c == '[' {
			close = ']'
		}
		s.i++
		depth := 1
		for s.i < len(s.b) && depth > 0 {
			switch b := s.b[s.i]; b {
			case '"':
				if _, err := s.parseStringBytes(); err != nil {
					return err
				}
				continue
			case open:
				depth++
			case close:
				depth--
			}
			s.i++
		}
		if depth != 0 {
			return errUnterminated
		}
		return nil
	case c == 't':
		return s.skipLiteral("true")
	case c == 'f':
		return s.skipLiteral("false")
	case c == 'n':
		return s.skipLiteral("null")
	case c == '-' || (c >= '0' && c <= '9'):
		s.i++
		for s.i < len(s.b) {
			b := s.b[s.i]
			if (b >= '0' && b <= '9') || b == '.' || b == 'e' || b == 'E' || b == '+' || b == '-' {
				s.i++
				continue
			}
			break
		}
		return nil
	default:
		return errSyntax
	}
}

func (s *jscan) skipLiteral(lit string) error {
	if s.i+len(lit) > len(s.b) || string(s.b[s.i:s.i+len(lit)]) != lit {
		return errSyntax
	}
	s.i += len(lit)
	return nil
}

// tryNull consumes a null literal if present.
func (s *jscan) tryNull() bool {
	if s.peek() == 'n' && s.skipLiteral("null") == nil {
		return true
	}
	return false
}

// parseObject walks the top-level object, calling field for each key (the
// raw key bytes are valid only during the call) and skipping nothing
// itself — field must consume the value or return an error. Callers match
// keys with bytes.EqualFold, the case folding encoding/json applies to
// field names. A null body is an empty object, as encoding/json decodes
// it.
func (s *jscan) parseObject(field func(key []byte) error) error {
	if s.tryNull() {
		return nil
	}
	if err := s.expect('{'); err != nil {
		return errNotObject
	}
	if s.peek() == '}' {
		s.i++
		return nil
	}
	for {
		key, err := s.parseStringBytes()
		if err != nil {
			return err
		}
		if err := s.expect(':'); err != nil {
			return err
		}
		if err := field(key); err != nil {
			return err
		}
		switch s.peek() {
		case ',':
			s.i++
		case '}':
			s.i++
			return nil
		default:
			return errSyntax
		}
	}
}

// parseSearchBatchBody decodes {"queries": [...], "max_items": n},
// appending queries into the caller's reused slice as byte slices, not
// strings: an escape-free query is a view into the body buffer; an
// escaped one is copied into the scratch arena, whose earlier views stay
// valid across growth because the old backing array is only abandoned,
// never rewritten. Unknown fields are skipped; a null or absent queries
// array comes back empty (the handler rejects it, as it rejected the nil
// the reflection decoder produced). A null in place of a query is an
// error: encoding/json would leave that slot's previous value, which for
// a repeated key is a stale element of the earlier array.
func parseSearchBatchBody(sc *reqScratch) (queries [][]byte, maxItems int, err error) {
	s := jscan{b: sc.body, strbuf: sc.strbuf[:0]}
	queries = sc.queries[:0]
	arena := sc.arena[:0]
	err = s.parseObject(func(key []byte) error {
		switch {
		case bytes.EqualFold(key, []byte("queries")):
			queries = queries[:0] // duplicate field: last one wins, like encoding/json
			if s.tryNull() {
				return nil
			}
			if err := s.expect('['); err != nil {
				return errNotArray
			}
			if s.peek() == ']' {
				s.i++
				return nil
			}
			for {
				qb, err := s.parseStringBytes()
				if err != nil {
					return err
				}
				if s.slow {
					// qb aliases the unescape scratch, which the next parse
					// reuses; move the bytes somewhere stable.
					n := len(arena)
					arena = append(arena, qb...)
					qb = arena[n:len(arena):len(arena)]
				}
				queries = append(queries, qb)
				switch s.peek() {
				case ',':
					s.i++
				case ']':
					s.i++
					return nil
				default:
					return errSyntax
				}
			}
		case bytes.EqualFold(key, []byte("max_items")):
			if s.tryNull() {
				return nil
			}
			n, err := s.parseInt()
			if err != nil {
				return err
			}
			maxItems = n
			return nil
		default:
			return s.skipValue()
		}
	})
	sc.strbuf = s.strbuf
	sc.arena = arena
	sc.queries = queries
	return queries, maxItems, err
}

// parseRecommendBatchBody decodes {"sessions": [[...], ...], "k": n} into
// the caller's reused [][]int (outer and inner storage both revived), so
// a recommend batch decodes with zero allocations in steady state. A null
// session is empty; a null item id is an error, as a null query is in
// parseSearchBatchBody.
func parseRecommendBatchBody(sc *reqScratch) (sessions [][]int, k int, err error) {
	s := jscan{b: sc.body, strbuf: sc.strbuf[:0]}
	sessions = sc.sessions[:0]
	err = s.parseObject(func(key []byte) error {
		switch {
		case bytes.EqualFold(key, []byte("sessions")):
			sessions = sessions[:0] // duplicate field: last one wins, like encoding/json
			if s.tryNull() {
				return nil
			}
			if err := s.expect('['); err != nil {
				return errNotArray
			}
			if s.peek() == ']' {
				s.i++
				return nil
			}
			for {
				if s.tryNull() {
					sessions = appendSession(sessions)
					sessions[len(sessions)-1] = sessions[len(sessions)-1][:0]
				} else {
					if err := s.expect('['); err != nil {
						return errNotArray
					}
					sessions = appendSession(sessions)
					inner := sessions[len(sessions)-1][:0]
					if s.peek() == ']' {
						s.i++
					} else {
					items:
						for {
							id, err := s.parseInt()
							if err != nil {
								return err
							}
							inner = append(inner, id)
							switch s.peek() {
							case ',':
								s.i++
							case ']':
								s.i++
								break items
							default:
								return errSyntax
							}
						}
					}
					sessions[len(sessions)-1] = inner
				}
				switch s.peek() {
				case ',':
					s.i++
				case ']':
					s.i++
					return nil
				default:
					return errSyntax
				}
			}
		case bytes.EqualFold(key, []byte("k")):
			if s.tryNull() {
				return nil
			}
			n, err := s.parseInt()
			if err != nil {
				return err
			}
			k = n
			return nil
		default:
			return s.skipValue()
		}
	})
	sc.strbuf = s.strbuf
	sc.sessions = sessions
	return sessions, k, err
}

// appendSession grows the outer session slice by one, reviving the inner
// slice previously stored in that slot.
func appendSession(sessions [][]int) [][]int {
	if cap(sessions) > len(sessions) {
		sessions = sessions[:len(sessions)+1]
		sessions[len(sessions)-1] = sessions[len(sessions)-1][:0]
		return sessions
	}
	return append(sessions, nil)
}
