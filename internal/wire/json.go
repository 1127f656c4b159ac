package wire

import (
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
)

// JSONReader reads the flat JSON objects op arguments are encoded as,
// without reflection. A parse function opens the top object with Object,
// walks its members with Next, reads each value it knows with Int, Int64,
// Bool, Ints, Int64s or a nested Object or Array, and skips the rest with
// Skip:
//
//	r := wire.NewJSONReader(b)
//	for it := r.Object(); r.Next(&it); {
//		switch string(r.Key()) {
//		case "user":
//			op.User = r.Int()
//		default:
//			r.Skip()
//		}
//	}
//	return op, r.Finish()
//
// The caller names members in lower case; Key folds the member's name the
// way encoding/json matches names (bytes.EqualFold), so a parser built on
// the reader decodes exactly what json.Unmarshal into the same struct
// decodes, for objects that name no member twice (encoding/json merges a
// repeated member into the value already decoded):
//
//   - names match case-insensitively, escaped names and the two non-ASCII
//     runes that fold to ASCII letters (U+017F and U+212A) included;
//   - unknown members are skipped but must still be valid JSON, nested no
//     deeper than encoding/json's 10000 levels;
//   - null leaves a value at its zero value;
//   - malformed input is rejected, and so is a value of the wrong type,
//     including a fraction, an exponent or an overflow where an integer
//     is read.
//
// The first failure sticks, as with Decoder: later reads return zero
// values and Finish reports the failure. Reading never panics, whatever
// the input, and a reader on the caller's stack allocates only the slices
// it returns and its error.
type JSONReader struct {
	buf   []byte
	pos   int
	err   error
	depth int
	// key is the current member name folded to lower case; keyN < 0 marks
	// a name no lower-case ASCII name can match (too long, or a rune that
	// folds to no ASCII letter).
	key  [32]byte
	keyN int
}

// JSONIter walks the entries of one object or array; the zero JSONIter
// has none (the value was null, or reading failed).
type JSONIter struct {
	end   byte // the closing byte, 0 when there is nothing to walk
	first bool
}

// Null reports whether the container read as null (or failed to read), so
// a caller can tell a null slice from an empty one, as encoding/json does.
func (it JSONIter) Null() bool { return it.end == 0 }

// maxJSONDepth is encoding/json's nesting limit.
const maxJSONDepth = 10000

// JSONError reports malformed or mistyped JSON at a byte offset.
type JSONError struct{ Offset int }

func (e *JSONError) Error() string {
	return fmt.Sprintf("wire: malformed or mistyped JSON at offset %d", e.Offset)
}

// NewJSONReader starts reading b.
func NewJSONReader(b []byte) JSONReader { return JSONReader{buf: b} }

// Finish reports the first failure, or a JSONError when anything but
// whitespace follows the value read.
func (r *JSONReader) Finish() error {
	r.space()
	if r.err == nil && r.pos != len(r.buf) {
		r.fail()
	}
	return r.err
}

func (r *JSONReader) fail() {
	if r.err == nil {
		r.err = &JSONError{Offset: r.pos}
	}
	r.pos = len(r.buf)
}

func (r *JSONReader) space() {
	for r.pos < len(r.buf) {
		switch r.buf[r.pos] {
		case ' ', '\t', '\n', '\r':
			r.pos++
		default:
			return
		}
	}
}

// peek skips whitespace and returns the next byte, 0 at the end.
func (r *JSONReader) peek() byte {
	r.space()
	if r.pos < len(r.buf) {
		return r.buf[r.pos]
	}
	return 0
}

// literal consumes word (true, false or null).
func (r *JSONReader) literal(word string) {
	if len(r.buf)-r.pos >= len(word) && string(r.buf[r.pos:r.pos+len(word)]) == word {
		r.pos += len(word)
		return
	}
	r.fail()
}

// null consumes a null value and reports whether there was one, or a
// failure.
func (r *JSONReader) null() bool {
	if r.err != nil {
		return true
	}
	if r.peek() != 'n' {
		return false
	}
	r.literal("null")
	return true
}

// open enters a container opening with start and closing with end.
func (r *JSONReader) open(start, end byte) JSONIter {
	if r.null() {
		return JSONIter{}
	}
	if r.peek() != start {
		r.fail()
		return JSONIter{}
	}
	r.pos++
	if r.depth++; r.depth > maxJSONDepth {
		r.fail()
		return JSONIter{}
	}
	return JSONIter{end: end, first: true}
}

// Object starts reading an object value; null reads as no members.
func (r *JSONReader) Object() JSONIter { return r.open('{', '}') }

// Array starts reading an array value; null reads as no elements.
func (r *JSONReader) Array() JSONIter { return r.open('[', ']') }

// Next advances it to its next entry and reports whether there is one.
// In an object it also reads the member's name (see Key); either way the
// caller then reads exactly one value. At the end it leaves the container.
func (r *JSONReader) Next(it *JSONIter) bool {
	if it.end == 0 {
		return false
	}
	c := r.peek()
	switch {
	case r.err != nil:
		it.end = 0
		return false
	case c == it.end:
		r.pos++
		r.depth--
		it.end = 0
		return false
	case it.first:
		it.first = false
	case c == ',':
		r.pos++
	default:
		r.fail()
		it.end = 0
		return false
	}
	if it.end == '}' {
		if r.peek() != '"' {
			r.fail()
			it.end = 0
			return false
		}
		r.foldKey()
		if r.peek() != ':' {
			r.fail()
			it.end = 0
			return false
		}
		r.pos++
	}
	return r.err == nil
}

// Key returns the current member's name folded to lower case, for a
// switch over lower-case names. A name that no lower-case ASCII name
// matches under bytes.EqualFold reads as empty. The slice is valid until
// the next call to Next.
func (r *JSONReader) Key() []byte {
	if r.keyN < 0 {
		return r.key[:0]
	}
	return r.key[:r.keyN]
}

// Skip consumes one value of any type, checking that it is valid JSON.
func (r *JSONReader) Skip() {
	switch r.peek() {
	case '{':
		for it := r.Object(); r.Next(&it); {
			r.Skip()
		}
	case '[':
		for it := r.Array(); r.Next(&it); {
			r.Skip()
		}
	case '"':
		r.str(false)
	case 't':
		r.literal("true")
	case 'f':
		r.literal("false")
	case 'n':
		r.literal("null")
	default:
		r.number()
	}
}

// Bool reads a boolean; null reads as false.
func (r *JSONReader) Bool() bool {
	if r.null() {
		return false
	}
	switch r.peek() {
	case 't':
		r.literal("true")
		return r.err == nil
	case 'f':
		r.literal("false")
	default:
		r.fail()
	}
	return false
}

// Int64 reads an integer; null reads as 0.
func (r *JSONReader) Int64() int64 {
	if r.null() {
		return 0
	}
	v, integral := r.number()
	if !integral {
		r.fail()
		return 0
	}
	return v
}

// Int reads an integer that must fit an int; null reads as 0.
func (r *JSONReader) Int() int {
	v := r.Int64()
	if int64(int(v)) != v {
		r.fail()
		return 0
	}
	return int(v)
}

// Int64s reads an array of integers: null reads as a nil slice, [] as an
// empty one, and a null element as 0.
func (r *JSONReader) Int64s() []int64 {
	var out []int64
	it := r.Array()
	if !it.Null() {
		out = []int64{}
	}
	for r.Next(&it) {
		out = append(out, r.Int64())
	}
	return out
}

// Ints is Int64s for int elements.
func (r *JSONReader) Ints() []int {
	var out []int
	it := r.Array()
	if !it.Null() {
		out = []int{}
	}
	for r.Next(&it) {
		out = append(out, r.Int())
	}
	return out
}

// number consumes a JSON number and returns its value when it is an
// integer that fits an int64; integral is false for a valid number with a
// fraction or exponent, or one out of range.
func (r *JSONReader) number() (v int64, integral bool) {
	b, i := r.buf, r.pos
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	var mag uint64
	integral = true
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			d := uint64(b[i] - '0')
			if mag > (1<<63-d)/10 {
				integral = false
			}
			mag = mag*10 + d
		}
	default:
		r.pos = i
		r.fail()
		return 0, false
	}
	if i < len(b) && b[i] == '.' {
		integral = false
		if i++; !r.digits(&i) {
			return 0, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		integral = false
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !r.digits(&i) {
			return 0, false
		}
	}
	r.pos = i
	if !integral || (!neg && mag > 1<<63-1) {
		return 0, false
	}
	if neg {
		return -int64(mag), true // wraps to MinInt64 exactly at 1<<63
	}
	return int64(mag), true
}

// digits consumes one or more decimal digits from *i.
func (r *JSONReader) digits(i *int) bool {
	start := *i
	for *i < len(r.buf) && '0' <= r.buf[*i] && r.buf[*i] <= '9' {
		*i++
	}
	if *i == start {
		r.pos = *i
		r.fail()
		return false
	}
	return true
}

// foldKey consumes a member name, folding it into r.key.
func (r *JSONReader) foldKey() {
	r.keyN = 0
	r.str(true)
}

// fold appends one decoded rune of a member name to r.key.
func (r *JSONReader) fold(c rune) {
	if r.keyN < 0 {
		return
	}
	if r.keyN == len(r.key) {
		r.keyN = -1
		return
	}
	switch {
	case 'A' <= c && c <= 'Z':
		c += 'a' - 'A'
	case c < utf8.RuneSelf:
	case c == '\u017f': // LATIN SMALL LETTER LONG S folds to s
		c = 's'
	case c == '\u212a': // KELVIN SIGN folds to k
		c = 'k'
	default:
		r.keyN = -1
		return
	}
	r.key[r.keyN] = byte(c)
	r.keyN++
}

// str consumes a string, checking its escapes; with key set it folds each
// decoded rune into r.key. A \u escape of a UTF-16 surrogate reaches fold
// as the surrogate itself and invalid UTF-8 as utf8.RuneError: neither
// folds to an ASCII letter, as neither does the rune encoding/json
// decodes them to.
func (r *JSONReader) str(key bool) {
	b := r.buf
	i := r.pos + 1 // past the opening quote
	for i < len(b) {
		c := b[i]
		switch {
		case c == '"':
			r.pos = i + 1
			return
		case c < 0x20:
			r.pos = i
			r.fail()
			return
		case c == '\\':
			e := rune(-1)
			if i+1 < len(b) {
				if k := strings.IndexByte(`"\/bfnrt`, b[i+1]); k >= 0 {
					e = rune("\"\\/\b\f\n\r\t"[k])
				} else if b[i+1] == 'u' && i+6 <= len(b) {
					if v, err := strconv.ParseUint(string(b[i+2:i+6]), 16, 16); err == nil {
						e = rune(v)
						i += 4
					}
				}
			}
			if e < 0 {
				r.pos = i
				r.fail()
				return
			}
			i += 2
			if key {
				r.fold(e)
			}
		case c < utf8.RuneSelf:
			i++
			if key {
				r.fold(rune(c))
			}
		default:
			c, n := utf8.DecodeRune(b[i:])
			i += n
			if key {
				r.fold(c)
			}
		}
	}
	r.pos = i
	r.fail()
}
