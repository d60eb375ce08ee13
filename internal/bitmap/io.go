package bitmap

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Serialization format (little-endian):
//
//	magic      uint32  'T','B','M','1' (v1) or 'T','B','M','2' (v2)
//	nContainer uint32
//	per container:
//	  key   uint64
//	  mode  uint8   0 = array, 1 = bitset, 2 = run list (v2 only)
//	  card  uint32  array: cardinality | bitset: cardinality | runs: run count
//	  array: card × uint16 | bitset: 1024 × uint64 | runs: card × (start,length uint16)
//
// WriteTo emits v2; ReadFrom also accepts v1, which is v2 without run
// containers, so images written before run compression existed keep
// loading.
const (
	ioMagic   = 0x314d4254 // "TBM1"
	ioMagicV2 = 0x324d4254 // "TBM2"
)

// WriteTo serialises the bitmap. It returns the number of bytes written.
func (b *Bitmap) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	hdr := make([]byte, 8)
	binary.LittleEndian.PutUint32(hdr[0:4], ioMagicV2)
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(b.containers)))
	if _, err := cw.Write(hdr); err != nil {
		return cw.n, err
	}
	for _, c := range b.containers {
		chdr := make([]byte, 13)
		binary.LittleEndian.PutUint64(chdr[0:8], c.key)
		switch {
		case c.set != nil:
			chdr[8] = 1
			binary.LittleEndian.PutUint32(chdr[9:13], uint32(c.card))
		case c.runs != nil:
			chdr[8] = 2
			binary.LittleEndian.PutUint32(chdr[9:13], uint32(len(c.runs)))
		default:
			binary.LittleEndian.PutUint32(chdr[9:13], uint32(len(c.array)))
		}
		if _, err := cw.Write(chdr); err != nil {
			return cw.n, err
		}
		switch {
		case c.set != nil:
			buf := make([]byte, 8*wordsPerSet)
			for i, word := range c.set {
				binary.LittleEndian.PutUint64(buf[i*8:], word)
			}
			if _, err := cw.Write(buf); err != nil {
				return cw.n, err
			}
		case c.runs != nil:
			buf := make([]byte, 4*len(c.runs))
			for i, r := range c.runs {
				binary.LittleEndian.PutUint16(buf[i*4:], r.start)
				binary.LittleEndian.PutUint16(buf[i*4+2:], r.length)
			}
			if _, err := cw.Write(buf); err != nil {
				return cw.n, err
			}
		default:
			buf := make([]byte, 2*len(c.array))
			for i, low := range c.array {
				binary.LittleEndian.PutUint16(buf[i*2:], low)
			}
			if _, err := cw.Write(buf); err != nil {
				return cw.n, err
			}
		}
	}
	return cw.n, nil
}

// ReadFrom replaces the bitmap contents with a serialised image. A count
// beyond what its container can hold is an error, and the container
// list grows as containers are read rather than being sized from the
// header, so a corrupt count costs at most the bytes actually present.
func (b *Bitmap) ReadFrom(r io.Reader) (int64, error) {
	cr := &countingReader{r: r}
	hdr := make([]byte, 8)
	if _, err := io.ReadFull(cr, hdr); err != nil {
		return cr.n, err
	}
	if m := binary.LittleEndian.Uint32(hdr[0:4]); m != ioMagic && m != ioMagicV2 {
		return cr.n, fmt.Errorf("bitmap: bad magic %#x", m)
	}
	n := int(binary.LittleEndian.Uint32(hdr[4:8]))
	var containers []*container
	for i := 0; i < n; i++ {
		chdr := make([]byte, 13)
		if _, err := io.ReadFull(cr, chdr); err != nil {
			return cr.n, err
		}
		c := &container{key: binary.LittleEndian.Uint64(chdr[0:8])}
		card := int(binary.LittleEndian.Uint32(chdr[9:13]))
		// A container holds at most containerSize values, and runs are
		// disjoint and non-adjacent, so at most half that many runs.
		limit := containerSize
		if chdr[8] == 2 {
			limit = containerSize / 2
		}
		if card > limit {
			return cr.n, fmt.Errorf("bitmap: container %d count %d exceeds %d", i, card, limit)
		}
		switch chdr[8] {
		case 1:
			buf := make([]byte, 8*wordsPerSet)
			if _, err := io.ReadFull(cr, buf); err != nil {
				return cr.n, err
			}
			c.set = make([]uint64, wordsPerSet)
			for w := range c.set {
				c.set[w] = binary.LittleEndian.Uint64(buf[w*8:])
			}
			c.card = card
		case 2:
			buf := make([]byte, 4*card)
			if _, err := io.ReadFull(cr, buf); err != nil {
				return cr.n, err
			}
			c.runs = make([]run, card)
			for j := range c.runs {
				c.runs[j].start = binary.LittleEndian.Uint16(buf[j*4:])
				c.runs[j].length = binary.LittleEndian.Uint16(buf[j*4+2:])
				c.card += int(c.runs[j].length) + 1
			}
		case 0:
			buf := make([]byte, 2*card)
			if _, err := io.ReadFull(cr, buf); err != nil {
				return cr.n, err
			}
			c.array = make([]uint16, card)
			for j := range c.array {
				c.array[j] = binary.LittleEndian.Uint16(buf[j*2:])
			}
		default:
			return cr.n, fmt.Errorf("bitmap: unknown container mode %d", chdr[8])
		}
		containers = append(containers, c)
	}
	b.containers = containers
	return cr.n, nil
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
