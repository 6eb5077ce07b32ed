package series

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

func TestReadTextSkipsWhitespace(t *testing.T) {
	s, err := ReadText(strings.NewReader("ab c\nab  cb\n"))
	if err != nil {
		t.Fatal(err)
	}
	if s.String() != "abcabcb" {
		t.Fatalf("ReadText = %q", s.String())
	}
}

func TestReadTextEmpty(t *testing.T) {
	if _, err := ReadText(strings.NewReader("  \n ")); err == nil {
		t.Fatal("whitespace-only input: want error")
	}
}

func TestReadValues(t *testing.T) {
	vals, err := ReadValues(strings.NewReader("1.5\n\n-2\n3e2\n"))
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1.5, -2, 300}
	if len(vals) != len(want) {
		t.Fatalf("got %v", vals)
	}
	for i := range want {
		if vals[i] != want[i] {
			t.Fatalf("got %v, want %v", vals, want)
		}
	}
}

func TestReadValuesErrors(t *testing.T) {
	if _, err := ReadValues(strings.NewReader("abc\n")); err == nil {
		t.Fatal("non-numeric: want error")
	}
	if _, err := ReadValues(strings.NewReader("")); err == nil {
		t.Fatal("empty: want error")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	s := FromString("abcabbabcbddddaa")
	var buf bytes.Buffer
	if err := WriteBinary(&buf, s); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.String() != s.String() {
		t.Fatalf("round trip: %q != %q", back.String(), s.String())
	}
	if back.Alphabet().Size() != s.Alphabet().Size() {
		t.Fatalf("σ = %d, want %d", back.Alphabet().Size(), s.Alphabet().Size())
	}
}

func TestReadBinaryRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"bad magic":       "XXXX 3 2\nab",
		"sigma too large": "PSER1 99 2\nab",
		"zero length":     "PSER1 3 0\n",
		"truncated body":  "PSER1 3 10\nab",
		"byte beyond σ":   "PSER1 2 2\n\x00\x05",
		"sigma 3000":      "PSER1 3000 8\n\x00\x01\x02\x03\x04\x05\x06\x07",
		"no header end":   "PSER1 3 2",
	}
	for name, input := range cases {
		if _, err := ReadBinary(strings.NewReader(input)); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}

// TestWriteBinaryRefusesWideAlphabets: the format's reader assigns the
// letters a..z, so a series of more symbols is refused before a byte is
// written rather than stored unreadably.
func TestWriteBinaryRefusesWideAlphabets(t *testing.T) {
	s := FromString("abcdefghijklmnopqrstuvwxyzABCD")
	var buf bytes.Buffer
	if err := WriteBinary(&buf, s); err == nil {
		t.Fatal("σ=30: want an error")
	}
	if buf.Len() != 0 {
		t.Fatalf("σ=30: %d bytes written before the refusal", buf.Len())
	}
}

// TestBinaryReaderChecksSize: given the bytes the source holds, the reader
// refuses a header that claims more symbols than follow it, before any
// body is read; without a size it reads up to the shortfall.
func TestBinaryReaderChecksSize(t *testing.T) {
	in := "PSER1 3 4\n\x00\x01\x02"
	if _, err := NewBinaryReader(strings.NewReader(in), int64(len(in))); err == nil {
		t.Fatal("4 symbols claimed, 3 present: want an error")
	}
	r, err := NewBinaryReader(strings.NewReader(in+"\x00"), int64(len(in)+1))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 3)
	for _, want := range []int{3, 1} {
		got, err := r.Next(buf)
		if err != nil || got != want {
			t.Fatalf("Next = %d, %v; want %d", got, err, want)
		}
	}
	if r.Sigma != 3 || r.N != 4 {
		t.Fatalf("header σ=%d n=%d, want 3 and 4", r.Sigma, r.N)
	}
	if _, err := r.Next(buf); err != io.EOF {
		t.Fatalf("after the body: %v, want io.EOF", err)
	}
}
