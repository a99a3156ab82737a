// Package wirejson reads and writes, without reflection, the compact
// JSON that encoding/json's Marshal produces. It serves the bytes that
// cross the coordinator on every store hit: point results decoded from
// the point store, job statuses a client waits for, and job records the
// journal appends.
//
// Reading goes through Decode. A type's hand-written read function
// walks the compact subset Marshal writes: no whitespace, keys spelled
// exactly as Marshal spells them, unescaped keys. On anything else the
// Reader fails and Decode falls back to json.Unmarshal into the same
// type, so a decode always yields what json.Unmarshal yields: the same
// value, and an error exactly when it errors.
//
// Writing goes through AppendString and AppendRaw, which produce the
// bytes Marshal would for a string and for a json.RawMessage.
package wirejson

import (
	"encoding/json"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Decode decodes b into a T with read, or, when read's Reader fails
// anywhere or b holds more than one value, with json.Unmarshal.
func Decode[T any](b []byte, read func(*Reader, *T)) (T, error) {
	if v, ok := Read(b, read); ok {
		return v, nil
	}
	var v T
	err := json.Unmarshal(b, &v)
	return v, err
}

// Read decodes b with read alone and reports whether b lay inside the
// subset read handles; Decode is Read with its fallback.
func Read[T any](b []byte, read func(*Reader, *T)) (T, bool) {
	var v T
	r := Reader{b: b}
	read(&r, &v)
	return v, !r.bad && r.off == len(b)
}

// maxDepth bounds the nesting Reader follows inside a raw value; deeper
// input goes to json.Unmarshal, which has its own bound.
const maxDepth = 1000

// Reader walks one compact JSON document. Every method first checks
// whether the Reader has failed and then does nothing, so a read
// function needs no error handling of its own: Decode looks once, at
// the end. A null value leaves its destination as json.Unmarshal does:
// unchanged, except that a slice becomes nil.
type Reader struct {
	b   []byte
	off int
	bad bool
	// marshaled makes skip fail on string bytes json.Marshal escapes
	// (AppendRaw).
	marshaled bool
}

// Fail marks the document as outside the subset: an unknown key, say.
func (r *Reader) Fail() { r.bad = true }

func (r *Reader) peek() byte {
	if r.off < len(r.b) {
		return r.b[r.off]
	}
	return 0
}

// literal consumes lit if the input continues with it.
func (r *Reader) literal(lit string) bool {
	if len(r.b)-r.off >= len(lit) && string(r.b[r.off:r.off+len(lit)]) == lit {
		r.off += len(lit)
		return true
	}
	return false
}

// Object reads an object, calling field with each key; field must read
// the value (or Fail).
func (r *Reader) Object(field func(key []byte)) {
	if r.bad || r.literal("null") {
		return
	}
	if r.peek() != '{' {
		r.Fail()
		return
	}
	r.off++
	if r.peek() == '}' {
		r.off++
		return
	}
	for !r.bad {
		key, escaped := r.str()
		if r.bad || escaped || r.peek() != ':' {
			r.Fail()
			return
		}
		r.off++
		field(key)
		if r.bad {
			return
		}
		switch r.peek() {
		case ',':
			r.off++
		case '}':
			r.off++
			return
		default:
			r.Fail()
		}
	}
}

// Slice reads an array into *p, one element per read call. The empty
// array is an empty, non-nil slice, as json.Unmarshal makes it. A
// second value for a slice already read fails: json.Unmarshal would
// decode it into the old elements.
func Slice[T any](r *Reader, p *[]T, read func(*Reader, *T)) {
	if r.bad {
		return
	}
	if r.literal("null") {
		*p = nil
		return
	}
	if *p != nil || r.peek() != '[' {
		r.Fail()
		return
	}
	r.off++
	s := []T{}
	if r.peek() == ']' {
		r.off++
		*p = s
		return
	}
	for !r.bad {
		var v T
		read(r, &v)
		s = append(s, v)
		switch r.peek() {
		case ',':
			r.off++
		case ']':
			r.off++
			*p = s
			return
		default:
			r.Fail()
		}
	}
}

// String reads a string.
func (r *Reader) String(p *string) {
	if r.bad || r.literal("null") {
		return
	}
	if s, _ := r.str(); !r.bad {
		*p = string(s)
	}
}

// str reads a string and returns its unescaped bytes, aliasing the
// input when it holds no escape (escaped false). Control bytes, invalid
// UTF-8 and surrogate escapes are left to json.Unmarshal.
func (r *Reader) str() (s []byte, escaped bool) {
	if r.bad || r.peek() != '"' {
		r.Fail()
		return nil, false
	}
	r.off++
	start := r.off
	for i := start; i < len(r.b); {
		c := r.b[i]
		if htmlSafe[c] {
			i++
			continue
		}
		switch {
		case c == '"':
			r.off = i + 1
			return r.b[start:i], false
		case c == '\\':
			return r.unescape(start, i), true
		case c < 0x20:
			r.Fail()
			return nil, false
		case c < utf8.RuneSelf:
			i++
		default:
			c, n := utf8.DecodeRune(r.b[i:])
			if c == utf8.RuneError && n == 1 {
				r.Fail()
				return nil, false
			}
			i += n
		}
	}
	r.Fail()
	return nil, false
}

// unescape finishes a string whose plain run b[start:i] ends at its
// first backslash, in one pass into a fresh buffer.
func (r *Reader) unescape(start, i int) []byte {
	out := make([]byte, 0, i-start+64)
	out = append(out, r.b[start:i]...)
	for i < len(r.b) {
		c := r.b[i]
		if htmlSafe[c] {
			j := i + 1
			for j < len(r.b) && htmlSafe[r.b[j]] {
				j++
			}
			out = append(out, r.b[i:j]...)
			i = j
			continue
		}
		switch {
		case c == '"':
			r.off = i + 1
			return out
		case c == '\\':
			if i+1 >= len(r.b) {
				r.Fail()
				return nil
			}
			switch e := r.b[i+1]; e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				rr := hex4(r.b[i+2:])
				if rr < 0 || (rr >= 0xD800 && rr < 0xE000) {
					r.Fail()
					return nil
				}
				out = utf8.AppendRune(out, rr)
				i += 4
			default:
				r.Fail()
				return nil
			}
			i += 2
		case c < 0x20:
			r.Fail()
			return nil
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			c, n := utf8.DecodeRune(r.b[i:])
			if c == utf8.RuneError && n == 1 {
				r.Fail()
				return nil
			}
			out = append(out, r.b[i:i+n]...)
			i += n
		}
	}
	r.Fail()
	return nil
}

// hex4 decodes the four hex digits at the start of b, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var v rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		v = v<<4 | rune(c)
	}
	return v
}

// number reads a JSON number's text: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
func (r *Reader) number() []byte {
	b, i := r.b, r.off
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		r.Fail()
		return nil
	}
	if i < len(b) && b[i] == '.' {
		if i = digits(b, i+1); b[i-1] == '.' {
			r.Fail()
			return nil
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := i
		if i = digits(b, i); i == j {
			r.Fail()
			return nil
		}
	}
	s := b[r.off:i]
	r.off = i
	return s
}

// digits returns the index past the run of decimal digits at b[i:].
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// Float reads a float64, failing where json.Unmarshal errors (out of
// range).
func (r *Reader) Float(p *float64) {
	if r.bad || r.literal("null") {
		return
	}
	s := r.number()
	if r.bad {
		return
	}
	f, err := strconv.ParseFloat(string(s), 64)
	if err != nil {
		r.Fail()
		return
	}
	*p = f
}

// Int reads an integer of any int or int64 kind, failing on a fraction,
// an exponent or overflow, as json.Unmarshal errors on them.
func Int[T ~int | ~int64](r *Reader, p *T) {
	if r.bad || r.literal("null") {
		return
	}
	s := r.number()
	if r.bad {
		return
	}
	n, err := strconv.ParseInt(string(s), 10, 64)
	if err != nil || int64(T(n)) != n {
		r.Fail()
		return
	}
	*p = T(n)
}

// Bool reads a bool.
func (r *Reader) Bool(p *bool) {
	switch {
	case r.bad || r.literal("null"):
	case r.literal("true"):
		*p = true
	case r.literal("false"):
		*p = false
	default:
		r.Fail()
	}
}

// Raw reads any value into *p as its exact bytes, copied, as
// json.RawMessage keeps them (a null is the four bytes "null").
func (r *Reader) Raw(p *[]byte) {
	if r.bad {
		return
	}
	start := r.off
	r.skip(0)
	if !r.bad {
		*p = append((*p)[:0], r.b[start:r.off]...)
	}
}

// skip steps over one value, checking its grammar.
func (r *Reader) skip(depth int) {
	if depth > maxDepth {
		r.Fail()
		return
	}
	switch c := r.peek(); {
	case c == '{' || c == '[':
		end := byte('}')
		if c == '[' {
			end = ']'
		}
		r.off++
		if r.peek() == end {
			r.off++
			return
		}
		for !r.bad {
			if c == '{' {
				if r.peek() != '"' {
					r.Fail()
					return
				}
				r.skipString()
				if r.bad || r.peek() != ':' {
					r.Fail()
					return
				}
				r.off++
			}
			r.skip(depth + 1)
			switch r.peek() {
			case ',':
				r.off++
			case end:
				r.off++
				return
			default:
				r.Fail()
			}
		}
	case c == '"':
		r.skipString()
	case c == '-' || ('0' <= c && c <= '9'):
		r.number()
	case r.literal("true") || r.literal("false") || r.literal("null"):
	default:
		r.Fail()
	}
}

// skipString steps over a string without unescaping it. Invalid UTF-8
// and surrogate escapes are kept as they are, as json.RawMessage and
// json.Marshal keep them.
func (r *Reader) skipString() {
	b := r.b
	for i := r.off + 1; i < len(b); {
		c := b[i]
		if htmlSafe[c] {
			i++
			continue
		}
		switch {
		case c == '"':
			r.off = i + 1
			return
		case c == '\\':
			if i+1 >= len(b) {
				r.Fail()
				return
			}
			switch b[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				if hex4(b[i+2:]) < 0 {
					r.Fail()
					return
				}
				i += 6
			default:
				r.Fail()
				return
			}
		case c < 0x20:
			r.Fail()
			return
		case !r.marshaled:
			i++
		case c == '<' || c == '>' || c == '&' ||
			c == 0xE2 && i+2 < len(b) && b[i+1] == 0x80 && b[i+2]&^1 == 0xA8:
			r.Fail()
			return
		default:
			i++
		}
	}
	r.Fail()
}

// htmlSafe marks the bytes json.Marshal writes into a string as they
// are: printable ASCII but for ", \\, <, > and &.
var htmlSafe = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = !strings.ContainsRune(`"\<>&`, rune(c))
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// AppendString appends s as json.Marshal encodes a string: quoted, with
// <, > and & escaped for HTML, U+2028 and U+2029 escaped, and each byte
// of invalid UTF-8 replaced by the escaped
// replacement character \ufffd.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if htmlSafe[c] {
			i++
			continue
		}
		if c < utf8.RuneSelf {
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
		ru, n := utf8.DecodeRuneInString(s[i:])
		switch {
		case ru == utf8.RuneError && n == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case ru == '\u2028' || ru == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[ru&0xF])
		default:
			i += n
			continue
		}
		i += n
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendRaw appends raw as json.Marshal encodes a json.RawMessage:
// compacted, with <, >, &, U+2028 and U+2029 escaped, or an error if
// raw is not one valid JSON value. Marshal's own output is already in
// that form, so after one pass that confirms it — valid, compact,
// escaped — it is appended as it is; anything else goes through
// json.Marshal.
func AppendRaw(dst, raw []byte) ([]byte, error) {
	r := Reader{b: raw, marshaled: true}
	r.skip(0)
	if !r.bad && r.off == len(raw) {
		return append(dst, raw...), nil
	}
	b, err := json.Marshal(json.RawMessage(raw))
	if err != nil {
		return dst, err
	}
	return append(dst, b...), nil
}
