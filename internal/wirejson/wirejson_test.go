package wirejson

import (
	"bytes"
	"encoding/json"
	"testing"
)

// AppendString writes json.Marshal's bytes for every single byte, for
// invalid UTF-8 and for the characters Marshal escapes.
func TestAppendStringMatchesMarshal(t *testing.T) {
	cases := []string{"", "plain", "tab\tnew\nline\r\"q\"\\", "<a href='x'>&amp;</a>",
		"Jülich \u2028 \u2029 \ufffd", "\xff\xc3(\xed\xa0\x80", "\x00\x01\x1f\x7f", "\U0001f600"}
	for c := 0; c < 256; c++ {
		cases = append(cases, string([]byte{byte(c)}), "a"+string([]byte{byte(c)})+"b")
	}
	for _, s := range cases {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendString(nil, s); !bytes.Equal(got, want) {
			t.Errorf("AppendString(%q) = %s, json.Marshal %s", s, got, want)
		}
	}
}

// AppendRaw writes json.Marshal's bytes for a json.RawMessage: compact
// input as it is, anything else re-compacted, invalid input an error.
func TestAppendRawMatchesMarshal(t *testing.T) {
	for _, raw := range []string{
		`{"a":[1,2.5,"x y"],"b":{"c":null,"d":true}}`, // compact: kept
		`"a\"b\\"`, `[]`, `0`,
		"{\"a\": [1, 2],\n\t\"b\" : \"<&>\"}", // whitespace and HTML characters
		"\"\u2028\"", `"<"`, `[" < "]`,
	} {
		want, err := json.Marshal(json.RawMessage(raw))
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendRaw([]byte("x"), []byte(raw))
		if err != nil || !bytes.Equal(got[1:], want) || got[0] != 'x' {
			t.Errorf("AppendRaw(%q) = %s (%v), json.Marshal %s", raw, got, err, want)
		}
	}
	for _, bad := range []string{``, `{"a":`, `[1,]`} {
		if _, err := AppendRaw(nil, []byte(bad)); err == nil {
			t.Errorf("AppendRaw(%q) took invalid JSON", bad)
		}
	}
}

type pair struct {
	A string
	B []float64
	R json.RawMessage
}

func readPair(r *Reader, v *pair) {
	r.Object(func(key []byte) {
		switch string(key) {
		case "A":
			r.String(&v.A)
		case "B":
			Slice(r, &v.B, (*Reader).Float)
		case "R":
			r.Raw((*[]byte)(&v.R))
		default:
			r.Fail()
		}
	})
}

// The reader takes what json.Marshal writes and leaves the rest to
// json.Unmarshal, and Decode's answer is json.Unmarshal's either way.
func TestDecodeFallsBackOutsideTheSubset(t *testing.T) {
	for _, c := range []struct {
		in   string
		fast bool
	}{
		{`{"A":"x\né","B":[1,-2.5e-3],"R":{"k":[true,null,"s"]}}`, true},
		{`{"A":null,"B":[],"R":null}`, true},
		{`{"B":null}`, true},
		{`{ "A":"x"}`, false},                    // whitespace
		{`{"a":"x"}`, false},                     // a key json.Unmarshal matches without case
		{`{"A":"\ud83d\ude00"}`, false},          // a surrogate pair
		{`{"B":[1],"B":[2]}`, false},             // a second value for a slice
		{`{"A":"x"}{}`, false},                   // two values
		{`{"A":1}`, false},                       // a type mismatch: an error
		{`{"R":{"a":1e999,"b":"\ud800"}}`, true}, // raw spans keep any valid value
	} {
		_, fast := Read([]byte(c.in), readPair)
		if fast != c.fast {
			t.Errorf("Read(%s) took it: %v, want %v", c.in, fast, c.fast)
		}
		got, err := Decode([]byte(c.in), readPair)
		var want pair
		wantErr := json.Unmarshal([]byte(c.in), &want)
		if (err != nil) != (wantErr != nil) || (err == nil && !equalPair(got, want)) {
			t.Errorf("Decode(%s) = %+v (%v), json.Unmarshal %+v (%v)", c.in, got, err, want, wantErr)
		}
	}
}

func equalPair(a, b pair) bool {
	if a.A != b.A || !bytes.Equal(a.R, b.R) || (a.B == nil) != (b.B == nil) || len(a.B) != len(b.B) {
		return false
	}
	for i := range a.B {
		if a.B[i] != b.B[i] {
			return false
		}
	}
	return true
}
