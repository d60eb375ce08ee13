package graph

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestValueCodecRoundTrip(t *testing.T) {
	values := []Value{
		NilValue,
		IntValue(0), IntValue(-1), IntValue(1 << 60),
		BoolValue(true), BoolValue(false),
		FloatValue(0), FloatValue(-2.5), FloatValue(1e300),
		StringValue(""), StringValue("hello"), StringValue(strings.Repeat("x", 10000)),
		StringValue(strings.Repeat("y", 3*readChunk+7)),
		StringValue("unicode ✓ 漢字"),
	}
	for _, v := range values {
		var buf bytes.Buffer
		if err := WriteValue(&buf, v); err != nil {
			t.Fatalf("WriteValue(%v): %v", v, err)
		}
		got, err := ReadValue(&buf)
		if err != nil {
			t.Fatalf("ReadValue(%v): %v", v, err)
		}
		if !got.Equal(v) && !(got.IsNil() && v.IsNil()) {
			t.Errorf("round trip: %v -> %v", v, got)
		}
		if got.Kind() != v.Kind() {
			t.Errorf("kind changed: %v -> %v", v.Kind(), got.Kind())
		}
	}
}

func TestValueCodecProperty(t *testing.T) {
	rt := func(i int64, f float64, s string, b bool) bool {
		for _, v := range []Value{IntValue(i), FloatValue(f), StringValue(s), BoolValue(b)} {
			var buf bytes.Buffer
			if err := WriteValue(&buf, v); err != nil {
				return false
			}
			got, err := ReadValue(&buf)
			if err != nil || got.Kind() != v.Kind() || !got.Equal(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(rt, nil); err != nil {
		t.Error(err)
	}
}

func TestReadValueErrors(t *testing.T) {
	// Empty input.
	if _, err := ReadValue(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
	// Unknown kind byte.
	if _, err := ReadValue(bytes.NewReader([]byte{0xFF})); err == nil {
		t.Error("unknown kind accepted")
	}
	// Truncated payloads.
	for _, b := range [][]byte{
		{byte(KindInt), 1, 2},                         // int needs 8 bytes
		{byte(KindFloat), 1},                          // float needs 8
		{byte(KindBool)},                              // bool needs 1
		{byte(KindString), 10, 0, 0, 0, 1},            // declares 10 bytes, has 1
		{byte(KindString), 0xFF, 0xFF, 0xFF, 0xFF, 1}, // declares 4 GiB, has 1
	} {
		if _, err := ReadValue(bytes.NewReader(b)); err == nil {
			t.Errorf("truncated %v accepted", b)
		}
	}
}
