package sparkdb

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"twigraph/internal/graph"
	"twigraph/internal/vfs"
)

// Image format version tags. Save writes v2; Load also accepts the
// legacy v1 layout. The two differ in two ways: v2's embedded bitmaps
// may carry run containers, and its edge endpoint arrays are
// zigzag-delta varint streams instead of v1's 16 fixed bytes per edge —
// endpoints arrive in near-ascending OID order from the bulk loaders,
// so deltas are small.
const (
	imageMagic   = 0x31444b53 // "SKD1"
	imageMagicV2 = 0x32444b53 // "SKD2"
)

// imageTrailerMagic introduces the trailing checksum block: magic plus
// an IEEE CRC-32 of everything before it. Images written before the
// trailer existed simply end at the body; Load accepts both.
const imageTrailerMagic = 0x43444b53 // "SKDC"

// Save writes the database image to path atomically. Link maps,
// materialised neighbor indexes and attribute inverted indexes are not
// stored: they are derived structures rebuilt on Load from the edge
// endpoint arrays and attribute value columns.
func (db *DB) Save(path string) error {
	return db.SaveFS(vfs.OS, path)
}

// SaveFS is Save on an explicit filesystem (fault-injection tests swap
// in a vfs.FaultFS; production code uses Save). The image, CRC trailer
// included, replaces path through vfs.WriteFileAtomic.
func (db *DB) SaveFS(fsys vfs.FS, path string) error {
	// Canonicalise every bitmap representation first: image bytes then
	// depend only on contents, so the worker-count determinism
	// comparisons keep holding.
	db.Optimize()
	return vfs.WriteFileAtomic(fsys, path, func(w io.Writer) error {
		sum := crc32.NewIEEE()
		if err := db.save(io.MultiWriter(w, sum)); err != nil {
			return err
		}
		var trailer [8]byte
		binary.LittleEndian.PutUint32(trailer[0:4], imageTrailerMagic)
		binary.LittleEndian.PutUint32(trailer[4:8], sum.Sum32())
		_, err := w.Write(trailer[:])
		return err
	})
}

func (db *DB) save(w io.Writer) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	le := binary.LittleEndian
	put32 := func(v uint32) error { return binary.Write(w, le, v) }
	put64 := func(v uint64) error { return binary.Write(w, le, v) }
	putStr := func(s string) error {
		if err := put32(uint32(len(s))); err != nil {
			return err
		}
		_, err := io.WriteString(w, s)
		return err
	}
	putBool := func(b bool) error {
		x := byte(0)
		if b {
			x = 1
		}
		_, err := w.Write([]byte{x})
		return err
	}

	if err := put32(imageMagicV2); err != nil {
		return err
	}
	if err := put64(db.maxObjects); err != nil {
		return err
	}
	if err := put64(db.objects); err != nil {
		return err
	}
	if err := put32(uint32(len(db.types))); err != nil {
		return err
	}
	for _, ti := range db.types {
		if err := putStr(ti.name); err != nil {
			return err
		}
		if err := putBool(ti.isEdge); err != nil {
			return err
		}
		if err := putBool(ti.materialized); err != nil {
			return err
		}
		if err := put64(ti.nextSeq); err != nil {
			return err
		}
		if _, err := ti.objects.WriteTo(w); err != nil {
			return err
		}
		if ti.isEdge {
			if err := put64(uint64(len(ti.tails))); err != nil {
				return err
			}
			var buf [2 * binary.MaxVarintLen64]byte
			var prevT, prevH uint64
			for i := range ti.tails {
				n := binary.PutUvarint(buf[:], zigzag(int64(ti.tails[i])-int64(prevT)))
				n += binary.PutUvarint(buf[n:], zigzag(int64(ti.heads[i])-int64(prevH)))
				prevT, prevH = ti.tails[i], ti.heads[i]
				if _, err := w.Write(buf[:n]); err != nil {
					return err
				}
			}
		}
	}
	if err := put32(uint32(len(db.attrs))); err != nil {
		return err
	}
	for _, ai := range db.attrs {
		if err := put32(uint32(ai.typeID)); err != nil {
			return err
		}
		if err := putStr(ai.name); err != nil {
			return err
		}
		if _, err := w.Write([]byte{byte(ai.kind)}); err != nil {
			return err
		}
		if err := putBool(ai.indexed); err != nil {
			return err
		}
		if err := put64(uint64(ai.set)); err != nil {
			return err
		}
		// The column is in ascending OID order, so repeated saves of the
		// same database are byte-identical (the import determinism tests
		// compare images).
		for i := uint64(0); i < ai.slots(); i++ {
			if !ai.has(i) {
				continue
			}
			if err := put64(makeOID(ai.typeID, i+1)); err != nil {
				return err
			}
			if err := graph.WriteValue(w, ai.slot(i)); err != nil {
				return err
			}
		}
	}
	return nil
}

// Load reads a database image written by Save and rebuilds all derived
// structures (link maps, neighbor indexes, attribute inverted indexes).
func Load(path string) (*DB, error) {
	return LoadFS(vfs.OS, path)
}

// LoadFS is Load on an explicit filesystem. When the image carries a
// checksum trailer the body CRC is verified; images written before the
// trailer existed load unchecked (backward compatible). The CRC can only
// be checked once the body is read, so every count the body sizes
// anything from is first checked against the bytes left in the file: a
// corrupt count is an error, never an allocation sized from it.
func LoadFS(fsys vfs.FS, path string) (*DB, error) {
	f, err := vfs.Open(fsys, path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		return nil, err
	}
	br := bufio.NewReader(f)
	sum := crc32.NewIEEE()
	db := New(Config{})
	if err := db.load(&imageReader{r: io.TeeReader(br, sum), left: size}); err != nil {
		return nil, fmt.Errorf("sparkdb: loading %s: %w", path, err)
	}
	// Trailer check: read past the body from br directly so the trailer
	// bytes are not hashed into the body CRC.
	var trailer [8]byte
	switch _, err := io.ReadFull(br, trailer[:]); err {
	case io.EOF:
		// Legacy image without trailer.
	case nil:
		if m := binary.LittleEndian.Uint32(trailer[0:4]); m != imageTrailerMagic {
			return nil, fmt.Errorf("sparkdb: loading %s: trailing garbage (magic %#x)", path, m)
		}
		if want, got := binary.LittleEndian.Uint32(trailer[4:8]), sum.Sum32(); want != got {
			return nil, fmt.Errorf("sparkdb: loading %s: image checksum mismatch (stored %#x, computed %#x)", path, want, got)
		}
	default:
		return nil, fmt.Errorf("sparkdb: loading %s: truncated checksum trailer: %w", path, err)
	}
	// Re-represent the rebuilt derived structures (link maps, neighbor
	// indexes, postings) at minimum size and publish the container-mix
	// gauges for the freshly loaded image.
	db.Optimize()
	return db, nil
}

func (db *DB) load(r *imageReader) error {
	le := binary.LittleEndian
	get32 := func() (uint32, error) {
		var v uint32
		err := binary.Read(r, le, &v)
		return v, err
	}
	get64 := func() (uint64, error) {
		var v uint64
		err := binary.Read(r, le, &v)
		return v, err
	}
	getStr := func() (string, error) {
		n, err := get32()
		if err != nil {
			return "", err
		}
		if err := r.fit("string length", uint64(n), 1); err != nil {
			return "", err
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(r, buf); err != nil {
			return "", err
		}
		return string(buf), nil
	}
	getBool := func() (bool, error) {
		var b [1]byte
		if _, err := io.ReadFull(r, b[:]); err != nil {
			return false, err
		}
		return b[0] != 0, nil
	}

	magic, err := get32()
	if err != nil {
		return err
	}
	if magic != imageMagic && magic != imageMagicV2 {
		return fmt.Errorf("bad magic %#x", magic)
	}
	if db.maxObjects, err = get64(); err != nil {
		return err
	}
	if db.objects, err = get64(); err != nil {
		return err
	}
	nTypes, err := get32()
	if err != nil {
		return err
	}
	for i := uint32(0); i < nTypes; i++ {
		name, err := getStr()
		if err != nil {
			return err
		}
		isEdge, err := getBool()
		if err != nil {
			return err
		}
		materialized, err := getBool()
		if err != nil {
			return err
		}
		id, err := db.newType(name, isEdge, materialized)
		if err != nil {
			return err
		}
		ti := db.types[id-1]
		if ti.nextSeq, err = get64(); err != nil {
			return err
		}
		if _, err := ti.objects.ReadFrom(r); err != nil {
			return err
		}
		// Objects are never deleted, so a type's members are exactly
		// seqs 1..nextSeq; attribute columns are sized from nextSeq.
		if !denseMembers(ti) {
			return fmt.Errorf("type %s: members are not seqs 1..%d", name, ti.nextSeq)
		}
		if isEdge {
			nEdges, err := get64()
			if err != nil {
				return err
			}
			// An edge takes two varints (v2) or two uint64s (v1).
			edgeBytes := uint64(16)
			if magic == imageMagicV2 {
				edgeBytes = 2
			}
			if err := r.fit(name+" edge count", nEdges, edgeBytes); err != nil {
				return err
			}
			ti.tails = make([]uint64, nEdges)
			ti.heads = make([]uint64, nEdges)
			if magic == imageMagicV2 {
				var prevT, prevH int64
				for j := uint64(0); j < nEdges; j++ {
					dt, err := binary.ReadUvarint(r)
					if err != nil {
						return err
					}
					dh, err := binary.ReadUvarint(r)
					if err != nil {
						return err
					}
					prevT += unzigzag(dt)
					prevH += unzigzag(dh)
					ti.tails[j] = uint64(prevT)
					ti.heads[j] = uint64(prevH)
				}
			} else {
				for j := uint64(0); j < nEdges; j++ {
					if ti.tails[j], err = get64(); err != nil {
						return err
					}
					if ti.heads[j], err = get64(); err != nil {
						return err
					}
				}
			}
			// Rebuild link maps and neighbor indexes.
			for j := range ti.tails {
				oid := makeOID(id, uint64(j+1))
				link(ti.outLinks, ti.tails[j], oid)
				link(ti.inLinks, ti.heads[j], oid)
				if ti.materialized {
					link(ti.outNbrs, ti.tails[j], ti.heads[j])
					link(ti.inNbrs, ti.heads[j], ti.tails[j])
				}
			}
		}
	}
	nAttrs, err := get32()
	if err != nil {
		return err
	}
	for i := uint32(0); i < nAttrs; i++ {
		typeID, err := get32()
		if err != nil {
			return err
		}
		name, err := getStr()
		if err != nil {
			return err
		}
		var kindB [1]byte
		if _, err := io.ReadFull(r, kindB[:]); err != nil {
			return err
		}
		indexed, err := getBool()
		if err != nil {
			return err
		}
		aid, err := db.NewAttribute(graph.TypeID(typeID), name, graph.Kind(kindB[0]), indexed)
		if err != nil {
			return err
		}
		nVals, err := get64()
		if err != nil {
			return err
		}
		// A value entry holds an OID and at least a kind byte.
		if err := r.fit(name+" value count", nVals, 8+1); err != nil {
			return err
		}
		ai := db.attrs[aid-1]
		ti := db.typeInfo(ai.typeID)
		if nVals > 0 {
			ai.size(ti.nextSeq, true)
		}
		// Values arrive in ascending OID order on objects of the
		// attribute's type; anything else is corruption, caught before
		// it can index the column.
		var prevSeq uint64
		for j := uint64(0); j < nVals; j++ {
			oid, err := get64()
			if err != nil {
				return err
			}
			seq := seqOf(oid)
			if ObjectType(oid) != ai.typeID || seq <= prevSeq || seq > ti.nextSeq {
				return fmt.Errorf("%s value OID %#x out of order or not an object of type %s (1..%d)", name, oid, ti.name, ti.nextSeq)
			}
			prevSeq = seq
			v, err := graph.ReadValue(r)
			if err != nil {
				return err
			}
			if v.IsNil() {
				return fmt.Errorf("%s value on %#x is nil", name, oid)
			}
			if v.Kind() != ai.kind {
				return fmt.Errorf("%s value on %#x is %v, declared %v", name, oid, v.Kind(), ai.kind)
			}
			ai.put(oid, v)
			if indexed {
				k := v.Key()
				b, ok := ai.index[k]
				if !ok {
					b = newPostings(ai, k, v)
				}
				b.Add(oid)
			}
		}
	}
	return nil
}

// denseMembers reports whether ti's member bitmap is exactly the OIDs
// of seqs 1..nextSeq.
func denseMembers(ti *typeInfo) bool {
	if ti.nextSeq >= 1<<oidTypeShift || uint64(ti.objects.Cardinality()) != ti.nextSeq {
		return false
	}
	if ti.nextSeq == 0 {
		return true
	}
	lo, _ := ti.objects.Min()
	hi, _ := ti.objects.Max()
	return lo == makeOID(ti.id, 1) && hi == makeOID(ti.id, ti.nextSeq)
}

// zigzag maps signed deltas onto small unsigned varints
// (0, -1, 1, -2 → 0, 1, 2, 3); unzigzag inverts it.
func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// imageReader is the image body reader (a TeeReader feeding the
// checksum). It counts down the bytes left in the file, so a count read
// from the image can be checked before anything is sized from it, and
// it is the io.ByteReader that varint decoding needs.
type imageReader struct {
	r    io.Reader
	left int64 // file bytes not yet consumed
	one  [1]byte
}

func (b *imageReader) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	b.left -= int64(n)
	return n, err
}

func (b *imageReader) ReadByte() (byte, error) {
	if _, err := io.ReadFull(b, b.one[:]); err != nil {
		return 0, err
	}
	return b.one[0], nil
}

// fit returns an error unless n entries of at least size bytes each fit
// in the bytes left.
func (b *imageReader) fit(what string, n, size uint64) error {
	if n > uint64(max(b.left, 0))/size {
		return fmt.Errorf("%s %d overruns the image (%d bytes left)", what, n, b.left)
	}
	return nil
}
