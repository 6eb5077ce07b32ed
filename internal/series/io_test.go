package series

import (
	"bytes"
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
	}
	for name, input := range cases {
		if _, err := ReadBinary(strings.NewReader(input)); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}
