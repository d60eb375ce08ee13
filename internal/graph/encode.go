package graph

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
)

// WriteValue serialises v in a compact binary form readable by
// ReadValue: a kind byte followed by the kind-specific payload.
func WriteValue(w io.Writer, v Value) error {
	if _, err := w.Write([]byte{byte(v.Kind())}); err != nil {
		return err
	}
	switch v.Kind() {
	case KindNil:
		return nil
	case KindInt:
		return binary.Write(w, binary.LittleEndian, v.Int())
	case KindBool:
		b := byte(0)
		if v.Bool() {
			b = 1
		}
		_, err := w.Write([]byte{b})
		return err
	case KindFloat:
		return binary.Write(w, binary.LittleEndian, v.Float())
	case KindString:
		s := v.Str()
		if err := binary.Write(w, binary.LittleEndian, uint32(len(s))); err != nil {
			return err
		}
		_, err := io.WriteString(w, s)
		return err
	}
	return fmt.Errorf("graph: cannot serialise kind %v", v.Kind())
}

// ReadValue reads a value written by WriteValue.
func ReadValue(r io.Reader) (Value, error) {
	var kb [1]byte
	if _, err := io.ReadFull(r, kb[:]); err != nil {
		return NilValue, err
	}
	switch Kind(kb[0]) {
	case KindNil:
		return NilValue, nil
	case KindInt:
		var i int64
		if err := binary.Read(r, binary.LittleEndian, &i); err != nil {
			return NilValue, err
		}
		return IntValue(i), nil
	case KindBool:
		var b [1]byte
		if _, err := io.ReadFull(r, b[:]); err != nil {
			return NilValue, err
		}
		return BoolValue(b[0] != 0), nil
	case KindFloat:
		var f float64
		if err := binary.Read(r, binary.LittleEndian, &f); err != nil {
			return NilValue, err
		}
		return FloatValue(f), nil
	case KindString:
		var n uint32
		if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
			return NilValue, err
		}
		buf, err := readBytes(r, int(n))
		if err != nil {
			return NilValue, err
		}
		return StringValue(string(buf)), nil
	}
	return NilValue, fmt.Errorf("graph: unknown kind byte %d", kb[0])
}

// readChunk is the most readBytes allocates ahead of the bytes it has
// read.
const readChunk = 64 << 10

// readBytes reads n bytes. Past readChunk it grows the buffer as bytes
// arrive instead of sizing it from n, so a corrupt length fails at the
// end of the input rather than allocating up to 4 GiB first.
func readBytes(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, 0, min(n, readChunk))
	for len(buf) < n {
		k := min(n-len(buf), readChunk)
		buf = slices.Grow(buf, k)
		if _, err := io.ReadFull(r, buf[len(buf):len(buf)+k]); err != nil {
			return nil, err
		}
		buf = buf[:len(buf)+k]
	}
	return buf, nil
}
