package storage

import (
	"encoding/binary"
	"fmt"
	"path/filepath"

	"twigraph/internal/graph"
	"twigraph/internal/vfs"
)

// Record sizes, chosen to mirror the compactness of Neo4j's store
// format while keeping encodings byte-aligned. Relationship and group
// records store their ids in 48 bits (put48/get48), so a page holds
// 170 relationship records rather than 128.
const (
	NodeRecordSize = 32
	RelRecordSize  = 48
	PropRecordSize = 24
	DynRecordSize  = 64

	dynPayload = DynRecordSize - 10 // usable bytes per dynamic block
)

const (
	flagInUse = 1
	flagDense = 2
)

// maxID48 is the largest id a relationship or group record can hold.
const maxID48 = 1<<48 - 1

// put48 writes the low 48 bits of v to b[0:6], little-endian.
func put48(b []byte, v uint64) {
	binary.LittleEndian.PutUint32(b[0:4], uint32(v))
	binary.LittleEndian.PutUint16(b[4:6], uint16(v>>32))
}

// get48 reads a 48-bit little-endian id from b[0:6].
func get48(b []byte) uint64 {
	return uint64(binary.LittleEndian.Uint32(b[0:4])) | uint64(binary.LittleEndian.Uint16(b[4:6]))<<32
}

// check48 rejects an id that does not fit in a 48-bit field, so Put
// fails instead of truncating it.
func check48(kind string, ids ...uint64) error {
	for _, v := range ids {
		if v > maxID48 {
			return fmt.Errorf("storage: %s record id %d exceeds the 48-bit limit", kind, v)
		}
	}
	return nil
}

// NodeRecord is the decoded form of a node store record. For sparse
// nodes FirstRel heads the node's single relationship chain; for dense
// nodes (Dense set) it heads a chain of relationship-group records in
// the group store, one per relationship type. FirstProp heads the
// property chain. DegOut/DegIn cache the node's degree so degree
// predicates (Q1.1) do not have to walk the chain.
type NodeRecord struct {
	InUse     bool
	Dense     bool
	Label     graph.TypeID
	FirstRel  graph.EdgeID // rel id (sparse) or group id (dense)
	FirstProp uint64
	DegOut    uint32
	DegIn     uint32
}

// RelRecord is the decoded form of a relationship store record. The four
// chain pointers place the record in two doubly-linked lists: the chain
// of Src's relationships and the chain of Dst's relationships — exactly
// Neo4j's layout, which makes one traversal hop cost one record fetch.
type RelRecord struct {
	InUse     bool
	Type      graph.TypeID
	Src, Dst  graph.NodeID
	SrcPrev   graph.EdgeID
	SrcNext   graph.EdgeID
	DstPrev   graph.EdgeID
	DstNext   graph.EdgeID
	FirstProp uint64
}

// PropRecord is the decoded form of a property store record: one
// key/value pair in a singly-linked property chain. String payloads
// larger than the inline slot live in the dynamic store, referenced by
// block id.
type PropRecord struct {
	InUse   bool
	Key     graph.AttrID
	Kind    graph.Kind
	Payload uint64 // int64 bits, float64 bits, bool, or dyn-store ref
	Next    uint64
}

// NodeStore is a RecordFile of NodeRecords.
type NodeStore struct{ *RecordFile }

// RelStore is a RecordFile of RelRecords.
type RelStore struct{ *RecordFile }

// PropStore is a RecordFile of PropRecords.
type PropStore struct{ *RecordFile }

// DynStore is a RecordFile of chained dynamic blocks holding string
// payloads, mirroring Neo4j's dynamic string store.
type DynStore struct{ *RecordFile }

// OpenNodeStore opens the node store file in dir.
func OpenNodeStore(dir string, cachePages int) (NodeStore, error) {
	return OpenNodeStoreFS(vfs.OS, dir, cachePages)
}

// OpenNodeStoreFS is OpenNodeStore on an explicit filesystem.
func OpenNodeStoreFS(fsys vfs.FS, dir string, cachePages int) (NodeStore, error) {
	f, err := OpenRecordFileFS(fsys, filepath.Join(dir, "nodes.store"), NodeRecordSize, cachePages)
	return NodeStore{f}, err
}

// OpenRelStore opens the relationship store file in dir.
func OpenRelStore(dir string, cachePages int) (RelStore, error) {
	return OpenRelStoreFS(vfs.OS, dir, cachePages)
}

// OpenRelStoreFS is OpenRelStore on an explicit filesystem.
func OpenRelStoreFS(fsys vfs.FS, dir string, cachePages int) (RelStore, error) {
	f, err := OpenRecordFileFS(fsys, filepath.Join(dir, "rels.store"), RelRecordSize, cachePages)
	return RelStore{f}, err
}

// OpenPropStore opens the property store file in dir.
func OpenPropStore(dir string, cachePages int) (PropStore, error) {
	return OpenPropStoreFS(vfs.OS, dir, cachePages)
}

// OpenPropStoreFS is OpenPropStore on an explicit filesystem.
func OpenPropStoreFS(fsys vfs.FS, dir string, cachePages int) (PropStore, error) {
	f, err := OpenRecordFileFS(fsys, filepath.Join(dir, "props.store"), PropRecordSize, cachePages)
	return PropStore{f}, err
}

// OpenDynStore opens the dynamic string store file in dir.
func OpenDynStore(dir string, cachePages int) (DynStore, error) {
	return OpenDynStoreFS(vfs.OS, dir, cachePages)
}

// OpenDynStoreFS is OpenDynStore on an explicit filesystem.
func OpenDynStoreFS(fsys vfs.FS, dir string, cachePages int) (DynStore, error) {
	f, err := OpenRecordFileFS(fsys, filepath.Join(dir, "strings.store"), DynRecordSize, cachePages)
	return DynStore{f}, err
}

// ---------- node records ----------

func encodeNode(rec []byte, r NodeRecord) {
	rec[0] = 0
	if r.InUse {
		rec[0] |= flagInUse
	}
	if r.Dense {
		rec[0] |= flagDense
	}
	binary.LittleEndian.PutUint32(rec[1:5], uint32(r.Label))
	binary.LittleEndian.PutUint64(rec[5:13], uint64(r.FirstRel))
	binary.LittleEndian.PutUint64(rec[13:21], r.FirstProp)
	binary.LittleEndian.PutUint32(rec[21:25], r.DegOut)
	binary.LittleEndian.PutUint32(rec[25:29], r.DegIn)
}

func decodeNode(rec []byte) NodeRecord {
	return NodeRecord{
		InUse:     rec[0]&flagInUse != 0,
		Dense:     rec[0]&flagDense != 0,
		Label:     graph.TypeID(binary.LittleEndian.Uint32(rec[1:5])),
		FirstRel:  graph.EdgeID(binary.LittleEndian.Uint64(rec[5:13])),
		FirstProp: binary.LittleEndian.Uint64(rec[13:21]),
		DegOut:    binary.LittleEndian.Uint32(rec[21:25]),
		DegIn:     binary.LittleEndian.Uint32(rec[25:29]),
	}
}

// NodeCursor reads node records through a pinned-page Cursor.
type NodeCursor struct{ Cursor }

// Cursor returns an unpinned node cursor.
func (s NodeStore) Cursor() NodeCursor { return NodeCursor{s.RecordFile.Cursor()} }

// Get reads the node record with the given id.
func (c *NodeCursor) Get(id graph.NodeID) (NodeRecord, error) {
	var r NodeRecord
	err := c.Read(uint64(id), func(rec []byte) { r = decodeNode(rec) })
	return r, err
}

// GetRun reads the node records ids as one ReadRun and hands fn each
// decoded record; fn runs under the page latch and must not read.
func (c *NodeCursor) GetRun(ids []uint64, fn func(i int, r NodeRecord)) error {
	return c.ReadRun(ids, func(i int, rec []byte) { fn(i, decodeNode(rec)) })
}

// Get reads the node record with the given id.
func (s NodeStore) Get(id graph.NodeID) (NodeRecord, error) {
	var r NodeRecord
	err := s.Read(uint64(id), func(rec []byte) { r = decodeNode(rec) })
	return r, err
}

// Put writes the node record with the given id.
func (s NodeStore) Put(id graph.NodeID, r NodeRecord) error {
	return s.Update(uint64(id), func(rec []byte) { encodeNode(rec, r) })
}

// ---------- relationship records ----------

func encodeRel(rec []byte, r RelRecord) {
	rec[0] = 0
	if r.InUse {
		rec[0] = flagInUse
	}
	binary.LittleEndian.PutUint32(rec[1:5], uint32(r.Type))
	put48(rec[5:11], uint64(r.Src))
	put48(rec[11:17], uint64(r.Dst))
	put48(rec[17:23], uint64(r.SrcPrev))
	put48(rec[23:29], uint64(r.SrcNext))
	put48(rec[29:35], uint64(r.DstPrev))
	put48(rec[35:41], uint64(r.DstNext))
	put48(rec[41:47], r.FirstProp)
}

func decodeRel(rec []byte) RelRecord {
	return RelRecord{
		InUse:     rec[0]&flagInUse != 0,
		Type:      graph.TypeID(binary.LittleEndian.Uint32(rec[1:5])),
		Src:       graph.NodeID(get48(rec[5:11])),
		Dst:       graph.NodeID(get48(rec[11:17])),
		SrcPrev:   graph.EdgeID(get48(rec[17:23])),
		SrcNext:   graph.EdgeID(get48(rec[23:29])),
		DstPrev:   graph.EdgeID(get48(rec[29:35])),
		DstNext:   graph.EdgeID(get48(rec[35:41])),
		FirstProp: get48(rec[41:47]),
	}
}

// RelCursor reads relationship records through a pinned-page Cursor.
type RelCursor struct{ Cursor }

// Cursor returns an unpinned relationship cursor.
func (s RelStore) Cursor() RelCursor { return RelCursor{s.RecordFile.Cursor()} }

// Get reads the relationship record with the given id.
func (c *RelCursor) Get(id graph.EdgeID) (RelRecord, error) {
	var r RelRecord
	err := c.Read(uint64(id), func(rec []byte) { r = decodeRel(rec) })
	return r, err
}

// Get reads the relationship record with the given id.
func (s RelStore) Get(id graph.EdgeID) (RelRecord, error) {
	var r RelRecord
	err := s.Read(uint64(id), func(rec []byte) { r = decodeRel(rec) })
	return r, err
}

// Put writes the relationship record with the given id. It fails,
// writing nothing, if any id in r exceeds 2^48-1.
func (s RelStore) Put(id graph.EdgeID, r RelRecord) error {
	if err := check48("relationship", uint64(r.Src), uint64(r.Dst), uint64(r.SrcPrev),
		uint64(r.SrcNext), uint64(r.DstPrev), uint64(r.DstNext), r.FirstProp); err != nil {
		return err
	}
	return s.Update(uint64(id), func(rec []byte) { encodeRel(rec, r) })
}

// ---------- property records ----------

func encodeProp(rec []byte, r PropRecord) {
	rec[0] = 0
	if r.InUse {
		rec[0] = flagInUse
	}
	binary.LittleEndian.PutUint32(rec[1:5], uint32(r.Key))
	rec[5] = byte(r.Kind)
	binary.LittleEndian.PutUint64(rec[6:14], r.Payload)
	binary.LittleEndian.PutUint64(rec[14:22], r.Next)
}

func decodeProp(rec []byte) PropRecord {
	return PropRecord{
		InUse:   rec[0]&flagInUse != 0,
		Key:     graph.AttrID(binary.LittleEndian.Uint32(rec[1:5])),
		Kind:    graph.Kind(rec[5]),
		Payload: binary.LittleEndian.Uint64(rec[6:14]),
		Next:    binary.LittleEndian.Uint64(rec[14:22]),
	}
}

// PropCursor reads property records through a pinned-page Cursor.
type PropCursor struct{ Cursor }

// Cursor returns an unpinned property cursor.
func (s PropStore) Cursor() PropCursor { return PropCursor{s.RecordFile.Cursor()} }

// Get reads the property record with the given id.
func (c *PropCursor) Get(id uint64) (PropRecord, error) {
	var r PropRecord
	err := c.Read(id, func(rec []byte) { r = decodeProp(rec) })
	return r, err
}

// GetRun reads the property records ids as one ReadRun and hands fn
// each decoded record; fn runs under the page latch and must not read.
func (c *PropCursor) GetRun(ids []uint64, fn func(i int, r PropRecord)) error {
	return c.ReadRun(ids, func(i int, rec []byte) { fn(i, decodeProp(rec)) })
}

// Get reads the property record with the given id.
func (s PropStore) Get(id uint64) (PropRecord, error) {
	var r PropRecord
	err := s.Read(id, func(rec []byte) { r = decodeProp(rec) })
	return r, err
}

// Put writes the property record with the given id.
func (s PropStore) Put(id uint64, r PropRecord) error {
	return s.Update(id, func(rec []byte) { encodeProp(rec, r) })
}

// ---------- dynamic (string) records ----------

// PutString stores s as a chain of dynamic blocks and returns the head
// block id.
func (s DynStore) PutString(str string) (uint64, error) {
	data := []byte(str)
	// Allocate blocks first so each block can point at its successor.
	nBlocks := (len(data) + dynPayload - 1) / dynPayload
	if nBlocks == 0 {
		nBlocks = 1
	}
	ids := make([]uint64, nBlocks)
	for i := range ids {
		ids[i] = s.Allocate()
	}
	for i := 0; i < nBlocks; i++ {
		chunk := data[i*dynPayload:]
		if len(chunk) > dynPayload {
			chunk = chunk[:dynPayload]
		}
		next := uint64(0)
		if i+1 < nBlocks {
			next = ids[i+1]
		}
		err := s.Update(ids[i], func(rec []byte) {
			rec[0] = flagInUse
			binary.LittleEndian.PutUint64(rec[1:9], next)
			rec[9] = byte(len(chunk))
			copy(rec[10:], chunk)
		})
		if err != nil {
			return 0, err
		}
	}
	return ids[0], nil
}

// DynCursor reads dynamic string chains through a pinned-page Cursor.
type DynCursor struct{ Cursor }

// Cursor returns an unpinned dynamic-store cursor.
func (s DynStore) Cursor() DynCursor { return DynCursor{s.RecordFile.Cursor()} }

// GetString reads the string chain headed at id.
func (s DynStore) GetString(id uint64) (string, error) {
	c := s.Cursor()
	defer c.Close()
	return c.GetString(id)
}

// GetString reads the string chain headed at id.
func (c *DynCursor) GetString(id uint64) (string, error) {
	var out []byte
	for id != 0 {
		var next uint64
		err := c.Read(id, func(rec []byte) {
			if rec[0]&flagInUse == 0 {
				next = 0
				return
			}
			next = binary.LittleEndian.Uint64(rec[1:9])
			n := int(rec[9])
			out = append(out, rec[10:10+n]...)
		})
		if err != nil {
			return "", err
		}
		if next == id {
			return "", fmt.Errorf("storage: dynamic chain cycle at block %d", id)
		}
		id = next
	}
	return string(out), nil
}

// FreeString releases the chain headed at id.
func (s DynStore) FreeString(id uint64) error {
	for id != 0 {
		var next uint64
		err := s.Update(id, func(rec []byte) {
			next = binary.LittleEndian.Uint64(rec[1:9])
			for i := range rec {
				rec[i] = 0
			}
		})
		if err != nil {
			return err
		}
		s.Release(id)
		id = next
	}
	return nil
}

// GroupRecordSize is the size of a relationship-group record.
const GroupRecordSize = 24

// GroupRecord is the decoded form of a relationship-group record — the
// dense-node structure of Neo4j's store format. A node whose degree
// crosses the dense threshold replaces its single relationship chain
// with a chain of groups, one per relationship type, each heading
// separate outgoing and incoming chains. Typed traversals from hubs
// then skip every unrelated relationship record.
type GroupRecord struct {
	InUse    bool
	Type     graph.TypeID
	Next     uint64 // next group in the node's group chain
	FirstOut graph.EdgeID
	FirstIn  graph.EdgeID
}

// GroupStore is a RecordFile of GroupRecords.
type GroupStore struct{ *RecordFile }

// OpenGroupStore opens the relationship-group store file in dir.
func OpenGroupStore(dir string, cachePages int) (GroupStore, error) {
	return OpenGroupStoreFS(vfs.OS, dir, cachePages)
}

// OpenGroupStoreFS is OpenGroupStore on an explicit filesystem.
func OpenGroupStoreFS(fsys vfs.FS, dir string, cachePages int) (GroupStore, error) {
	f, err := OpenRecordFileFS(fsys, filepath.Join(dir, "groups.store"), GroupRecordSize, cachePages)
	return GroupStore{f}, err
}

func encodeGroup(rec []byte, r GroupRecord) {
	rec[0] = 0
	if r.InUse {
		rec[0] = flagInUse
	}
	binary.LittleEndian.PutUint32(rec[1:5], uint32(r.Type))
	put48(rec[5:11], r.Next)
	put48(rec[11:17], uint64(r.FirstOut))
	put48(rec[17:23], uint64(r.FirstIn))
}

func decodeGroup(rec []byte) GroupRecord {
	return GroupRecord{
		InUse:    rec[0]&flagInUse != 0,
		Type:     graph.TypeID(binary.LittleEndian.Uint32(rec[1:5])),
		Next:     get48(rec[5:11]),
		FirstOut: graph.EdgeID(get48(rec[11:17])),
		FirstIn:  graph.EdgeID(get48(rec[17:23])),
	}
}

// GroupCursor reads relationship-group records through a pinned-page
// Cursor.
type GroupCursor struct{ Cursor }

// Cursor returns an unpinned group cursor.
func (s GroupStore) Cursor() GroupCursor { return GroupCursor{s.RecordFile.Cursor()} }

// Get reads the group record with the given id.
func (c *GroupCursor) Get(id uint64) (GroupRecord, error) {
	var r GroupRecord
	err := c.Read(id, func(rec []byte) { r = decodeGroup(rec) })
	return r, err
}

// Get reads the group record with the given id.
func (s GroupStore) Get(id uint64) (GroupRecord, error) {
	var r GroupRecord
	err := s.Read(id, func(rec []byte) { r = decodeGroup(rec) })
	return r, err
}

// Put writes the group record with the given id. It fails, writing
// nothing, if any id in r exceeds 2^48-1.
func (s GroupStore) Put(id uint64, r GroupRecord) error {
	if err := check48("group", r.Next, uint64(r.FirstOut), uint64(r.FirstIn)); err != nil {
		return err
	}
	return s.Update(id, func(rec []byte) { encodeGroup(rec, r) })
}
