package wire

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"
)

// readUser is the smallest parser on the reader: one int member.
func readUser(b []byte) (int, error) {
	var user int
	r := NewJSONReader(b)
	for it := r.Object(); r.Next(&it); {
		if string(r.Key()) == "user" {
			user = r.Int()
		} else {
			r.Skip()
		}
	}
	return user, r.Finish()
}

// TestJSONFoldRunes pins the fold the reader hard-codes: U+017F and
// U+212A are the only non-ASCII runes whose case-folding orbit holds an
// ASCII letter, so folding them to s and k and rejecting every other
// non-ASCII rune is bytes.EqualFold against an ASCII name.
func TestJSONFoldRunes(t *testing.T) {
	for r := rune(utf8.RuneSelf); r <= unicode.MaxRune; r++ {
		for f := unicode.SimpleFold(r); f != r; f = unicode.SimpleFold(f) {
			if f < utf8.RuneSelf && r != 'ſ' && r != 'K' {
				t.Fatalf("%U folds to ASCII %q", r, f)
			}
		}
	}
	for _, name := range []string{"usſr", "uſer", "Kind", "USER", "uSeR", `User`, `user`, `uſer`} {
		in := []byte(`{"` + name + `":7}`)
		var want struct{ User, Kind int }
		if err := json.Unmarshal(in, &want); err != nil {
			t.Fatal(err)
		}
		got, err := readUser(in)
		if err != nil || got != want.User {
			t.Errorf("%s: read %d, %v; encoding/json reads %d", in, got, err, want.User)
		}
	}
}

// TestJSONDepthLimit: unknown values nest as deep as encoding/json
// allows, and one level deeper fails in both.
func TestJSONDepthLimit(t *testing.T) {
	for _, depth := range []int{maxJSONDepth, maxJSONDepth + 1} {
		// The top object is one level; the skipped array nests the rest.
		n := depth - 1
		in := []byte(`{"x":` + strings.Repeat("[", n) + strings.Repeat("]", n) + `,"user":3}`)
		var want struct{ User int }
		wantErr := json.Unmarshal(in, &want)
		got, err := readUser(in)
		if (err == nil) != (wantErr == nil) || got != want.User {
			t.Errorf("depth %d: read %d, %v; encoding/json %d, %v", depth, got, err, want.User, wantErr)
		}
	}
}

// TestJSONReaderErrors: malformed and mistyped input fails with a
// JSONError; long unknown names and a top-level null read cleanly.
func TestJSONReaderErrors(t *testing.T) {
	for _, in := range []string{``, `{`, `{"user":}`, `{"user":1`, `{"user":1}x`, `{"user":1.0}`, `{"user":"1"}`, `[1]`} {
		_, err := readUser([]byte(in))
		var je *JSONError
		if !errors.As(err, &je) {
			t.Errorf("%q: error %v, want a JSONError", in, err)
		}
	}
	long := []byte(`{"` + strings.Repeat("u", 40) + `":1,"user":2}`)
	if got, err := readUser(long); err != nil || got != 2 {
		t.Errorf("long name: read %d, %v", got, err)
	}
	if got, err := readUser([]byte(" null ")); err != nil || got != 0 {
		t.Errorf("null: read %d, %v", got, err)
	}
}
