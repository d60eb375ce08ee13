package idx

import (
	"bufio"
	"encoding/binary"
	"io"
	"os"
	"sync"

	"twigraph/internal/bitmap"
	"twigraph/internal/graph"
	"twigraph/internal/vfs"
)

// LabelScan maps each node label to the bitmap of node ids carrying it —
// Neo4j's label scan store, the access path behind `MATCH (n:user)` when
// no narrower index applies.
// Safe for concurrent use; Nodes returns snapshot copies.
type LabelScan struct {
	mu     sync.RWMutex
	fsys   vfs.FS
	path   string
	labels map[graph.TypeID]*bitmap.Bitmap
}

// NewLabelScan creates a label scan store that snapshots to path (empty
// path means memory-only).
func NewLabelScan(path string) *LabelScan {
	return NewLabelScanFS(vfs.OS, path)
}

// NewLabelScanFS is NewLabelScan on an explicit filesystem.
func NewLabelScanFS(fsys vfs.FS, path string) *LabelScan {
	return &LabelScan{fsys: fsys, path: path, labels: make(map[graph.TypeID]*bitmap.Bitmap)}
}

// OpenLabelScan loads the snapshot at path if present.
func OpenLabelScan(path string) (*LabelScan, error) {
	return OpenLabelScanFS(vfs.OS, path)
}

// OpenLabelScanFS is OpenLabelScan on an explicit filesystem.
func OpenLabelScanFS(fsys vfs.FS, path string) (*LabelScan, error) {
	ls := NewLabelScanFS(fsys, path)
	f, err := vfs.Open(fsys, path)
	if err != nil {
		if os.IsNotExist(err) {
			return ls, nil
		}
		return nil, err
	}
	defer f.Close()
	r := bufio.NewReader(f)
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	for i := uint32(0); i < n; i++ {
		var label uint32
		if err := binary.Read(r, binary.LittleEndian, &label); err != nil {
			return nil, err
		}
		b := bitmap.New()
		if _, err := b.ReadFrom(r); err != nil {
			return nil, err
		}
		ls.labels[graph.TypeID(label)] = b
	}
	return ls, nil
}

// Add records that node id has the label.
func (ls *LabelScan) Add(label graph.TypeID, id graph.NodeID) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	b, ok := ls.labels[label]
	if !ok {
		b = bitmap.New()
		ls.labels[label] = b
	}
	b.Add(uint64(id))
}

// Remove drops node id from the label.
func (ls *LabelScan) Remove(label graph.TypeID, id graph.NodeID) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if b, ok := ls.labels[label]; ok {
		b.Remove(uint64(id))
	}
}

// Nodes returns a snapshot of the node ids with the label, or nil. The
// caller owns the returned bitmap.
func (ls *LabelScan) Nodes(label graph.TypeID) *bitmap.Bitmap {
	ls.mu.RLock()
	defer ls.mu.RUnlock()
	if b, ok := ls.labels[label]; ok {
		return b.Clone()
	}
	return nil
}

// Count returns the number of nodes with the label.
func (ls *LabelScan) Count(label graph.TypeID) int {
	ls.mu.RLock()
	defer ls.mu.RUnlock()
	if b, ok := ls.labels[label]; ok {
		return b.Cardinality()
	}
	return 0
}

// Sync replaces the snapshot on disk atomically (vfs.WriteFileAtomic).
func (ls *LabelScan) Sync() error {
	if ls.path == "" {
		return nil
	}
	return vfs.WriteFileAtomic(ls.fsys, ls.path, ls.save)
}

func (ls *LabelScan) save(w io.Writer) error {
	ls.mu.RLock()
	defer ls.mu.RUnlock()
	if err := binary.Write(w, binary.LittleEndian, uint32(len(ls.labels))); err != nil {
		return err
	}
	for label, b := range ls.labels {
		if err := binary.Write(w, binary.LittleEndian, uint32(label)); err != nil {
			return err
		}
		if _, err := b.WriteTo(w); err != nil {
			return err
		}
	}
	return nil
}
