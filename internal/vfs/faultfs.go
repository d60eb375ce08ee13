package vfs

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
)

// FaultFS is a deterministic in-memory filesystem for crash and fault
// testing. Every file keeps two byte images:
//
//   - volatile: what readers of the live process observe — every WriteAt
//     lands here immediately, like the OS page cache.
//   - durable: what survives a crash — updated only by Sync.
//
// Crash() discards all volatile state, reverting every file to its last
// synced image (files never synced revert to empty; files created but
// never synced disappear). A Rename takes effect at once for the live
// process but becomes durable only at a SyncDir of the new name's
// directory: Crash undoes every rename not yet synced that way. A
// synced rename of a never-synced file reproduces the classic
// "rename-before-fsync publishes an empty file" failure mode.
//
// Faults are scripted with AddFault: fail the Nth write, tear it short,
// flip a bit on the Nth read, run out of space, or make fsync fail.
// A failed Sync poisons the file: every later Sync on it fails too
// (fsync errors stick — dirty data is gone and the kernel will not
// pretend otherwise). CrashAfter/CrashDuringWrite halt the whole
// filesystem at a chosen operation boundary so a harness can simulate
// dying mid-run and then reopen after Crash().
//
// All methods are safe for concurrent use.
type FaultFS struct {
	mu    sync.Mutex
	nodes map[string]*memNode
	dirs  map[string]bool
	// renames are the renames no SyncDir has made durable yet, oldest
	// first.
	renames []rename
	faults  []*Fault
	counts  map[Op]uint64

	halted    bool
	crashOp   Op
	crashN    uint64 // halt once counts[crashOp] reaches this; 0 = disarmed
	crashKeep int    // CrashDuringWrite: bytes of the fatal write applied

	syncFailures uint64
}

// memNode is one file's state, shared by every handle opened on it.
type memNode struct {
	volatile []byte
	durable  []byte
	// durableExists records whether the file survives a crash at all. A
	// file neither synced nor moved by a rename that a SyncDir made
	// durable vanishes on Crash.
	durableExists bool
	poisoned      error // sticky sync failure
}

// rename is one Rename awaiting a SyncDir: node moved from old to new,
// displacing whatever new named before (nil if nothing).
type rename struct {
	old, new        string
	node, displaced *memNode
}

// Op classifies filesystem operations for fault matching and crash
// points.
type Op uint8

const (
	OpRead Op = iota + 1
	OpWrite
	OpSync
)

func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpSync:
		return "sync"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// FaultKind selects what an armed fault does when it fires.
type FaultKind uint8

const (
	// KindErr fails the operation outright (no bytes transferred; a
	// failed sync leaves durable state untouched and poisons the file).
	KindErr FaultKind = iota + 1
	// KindTorn applies only Keep bytes of a write, then fails — a torn
	// or short write.
	KindTorn
	// KindBitFlip flips one bit of the data returned by a read,
	// simulating silent media corruption. The operation itself succeeds.
	KindBitFlip
	// KindENOSPC fails a write with ErrNoSpace after applying Keep bytes.
	KindENOSPC
)

// Fault is one scripted fault. It fires on the Nth (1-based) operation
// of the matching Op whose path contains PathSubstr ("" matches any),
// counted per fault, then disarms.
type Fault struct {
	Op         Op
	PathSubstr string
	Nth        uint64
	Kind       FaultKind
	Keep       int   // KindTorn/KindENOSPC: bytes of the write applied
	BitOffset  int64 // KindBitFlip: bit index into the returned buffer
	Err        error // optional override for the returned error

	seen uint64
}

// Injected fault sentinels, matchable with errors.Is.
var (
	ErrInjected = errors.New("vfs: injected fault")
	ErrNoSpace  = errors.New("vfs: no space left on device")
	ErrCrashed  = errors.New("vfs: simulated crash (filesystem halted)")
)

// NewFaultFS returns an empty fault-injecting filesystem.
func NewFaultFS() *FaultFS {
	return &FaultFS{
		nodes:  make(map[string]*memNode),
		dirs:   make(map[string]bool),
		counts: make(map[Op]uint64),
	}
}

// AddFault arms one scripted fault.
func (ffs *FaultFS) AddFault(f Fault) {
	ffs.mu.Lock()
	defer ffs.mu.Unlock()
	ffs.faults = append(ffs.faults, &f)
}

// ClearFaults disarms every scripted fault (crash arming is separate).
func (ffs *FaultFS) ClearFaults() {
	ffs.mu.Lock()
	defer ffs.mu.Unlock()
	ffs.faults = nil
}

// CrashAfter halts the filesystem once n operations of kind op have
// completed: every operation after that boundary fails with ErrCrashed
// until Crash() is called. n counts from the moment of arming.
func (ffs *FaultFS) CrashAfter(op Op, n uint64) {
	ffs.mu.Lock()
	defer ffs.mu.Unlock()
	ffs.crashOp = op
	ffs.crashN = ffs.counts[op] + n
	ffs.crashKeep = -1
}

// CrashDuringWrite halts the filesystem in the middle of the nth write
// from now: only keep bytes of that write are applied, the write fails
// with ErrCrashed, and the filesystem stays halted until Crash().
func (ffs *FaultFS) CrashDuringWrite(n uint64, keep int) {
	ffs.mu.Lock()
	defer ffs.mu.Unlock()
	ffs.crashOp = OpWrite
	ffs.crashN = ffs.counts[OpWrite] + n
	ffs.crashKeep = keep
}

// Crash discards all volatile state — every file reverts to its last
// synced image and never-synced files disappear — clears the halt, the
// crash arming, sticky sync poisoning and scripted faults, and returns
// the filesystem to service, as if the process had died and restarted.
func (ffs *FaultFS) Crash() {
	ffs.mu.Lock()
	defer ffs.mu.Unlock()
	ffs.nodes = ffs.durableNodes()
	for _, n := range ffs.nodes {
		n.volatile = append([]byte(nil), n.durable...)
		n.poisoned = nil
	}
	ffs.renames = nil
	ffs.halted = false
	ffs.crashN = 0
	ffs.faults = nil
}

// durableNodes returns the namespace a crash would leave: the live one
// with every unsynced rename undone, newest first, and every file that
// was never made durable dropped. Caller holds ffs.mu.
func (ffs *FaultFS) durableNodes() map[string]*memNode {
	nodes := make(map[string]*memNode, len(ffs.nodes))
	for path, n := range ffs.nodes {
		nodes[path] = n
	}
	for i := len(ffs.renames) - 1; i >= 0; i-- {
		r := ffs.renames[i]
		nodes[r.old] = r.node
		if r.displaced != nil {
			nodes[r.new] = r.displaced
		} else {
			delete(nodes, r.new)
		}
	}
	for path, n := range nodes {
		if !n.durableExists {
			delete(nodes, path)
		}
	}
	return nodes
}

// Halted reports whether a CrashAfter/CrashDuringWrite boundary has
// been reached.
func (ffs *FaultFS) Halted() bool {
	ffs.mu.Lock()
	defer ffs.mu.Unlock()
	return ffs.halted
}

// OpCount returns how many operations of kind op have completed
// (including ones that faulted).
func (ffs *FaultFS) OpCount(op Op) uint64 {
	ffs.mu.Lock()
	defer ffs.mu.Unlock()
	return ffs.counts[op]
}

// SyncFailures returns how many Sync calls have failed (injected or
// sticky).
func (ffs *FaultFS) SyncFailures() uint64 {
	ffs.mu.Lock()
	defer ffs.mu.Unlock()
	return ffs.syncFailures
}

// VolatileLen returns the live length of path, or -1 if absent.
func (ffs *FaultFS) VolatileLen(path string) int {
	ffs.mu.Lock()
	defer ffs.mu.Unlock()
	if n, ok := ffs.nodes[filepath.Clean(path)]; ok {
		return len(n.volatile)
	}
	return -1
}

// DurableLen returns the crash-surviving length of path, or -1 if the
// file would not survive a crash.
func (ffs *FaultFS) DurableLen(path string) int {
	ffs.mu.Lock()
	defer ffs.mu.Unlock()
	if n, ok := ffs.durableNodes()[filepath.Clean(path)]; ok {
		return len(n.durable)
	}
	return -1
}

// step records one operation of kind op on path and returns the fault
// armed for it, if any. Caller holds ffs.mu. The returned error is
// ErrCrashed when the filesystem is (or just became) halted.
func (ffs *FaultFS) step(op Op, path string) (*Fault, error) {
	if ffs.halted {
		return nil, ErrCrashed
	}
	ffs.counts[op]++
	var fired *Fault
	for _, f := range ffs.faults {
		if f.Op != op || f.Nth == 0 {
			continue
		}
		if f.PathSubstr != "" && !containsPath(path, f.PathSubstr) {
			continue
		}
		f.seen++
		if f.seen == f.Nth && fired == nil {
			fired = f
			f.Nth = 0 // disarm
		}
	}
	if ffs.crashN > 0 && ffs.crashOp == op && ffs.counts[op] == ffs.crashN {
		ffs.halted = true
		ffs.crashN = 0
		if op == OpWrite && ffs.crashKeep >= 0 {
			// The fatal write itself is torn: signal via a synthetic fault.
			return &Fault{Op: OpWrite, Kind: KindTorn, Keep: ffs.crashKeep, Err: ErrCrashed}, nil
		}
		// The boundary operation completes; everything after fails.
		return fired, nil
	}
	return fired, nil
}

func containsPath(path, substr string) bool {
	for i := 0; i+len(substr) <= len(path); i++ {
		if path[i:i+len(substr)] == substr {
			return true
		}
	}
	return false
}

// ---------- FS interface ----------

func (ffs *FaultFS) OpenFile(path string, flag int, perm fs.FileMode) (File, error) {
	path = filepath.Clean(path)
	ffs.mu.Lock()
	defer ffs.mu.Unlock()
	if ffs.halted {
		return nil, &fs.PathError{Op: "open", Path: path, Err: ErrCrashed}
	}
	n, ok := ffs.nodes[path]
	if !ok {
		if flag&os.O_CREATE == 0 {
			return nil, &fs.PathError{Op: "open", Path: path, Err: fs.ErrNotExist}
		}
		n = &memNode{}
		ffs.nodes[path] = n
	} else if flag&(os.O_CREATE|os.O_EXCL) == os.O_CREATE|os.O_EXCL {
		return nil, &fs.PathError{Op: "open", Path: path, Err: fs.ErrExist}
	}
	if flag&os.O_TRUNC != 0 {
		n.volatile = nil
	}
	return &memFile{fs: ffs, node: n, path: path}, nil
}

func (ffs *FaultFS) Rename(oldPath, newPath string) error {
	oldPath, newPath = filepath.Clean(oldPath), filepath.Clean(newPath)
	ffs.mu.Lock()
	defer ffs.mu.Unlock()
	if ffs.halted {
		return &os.LinkError{Op: "rename", Old: oldPath, New: newPath, Err: ErrCrashed}
	}
	n, ok := ffs.nodes[oldPath]
	if !ok {
		return &os.LinkError{Op: "rename", Old: oldPath, New: newPath, Err: fs.ErrNotExist}
	}
	ffs.renames = append(ffs.renames, rename{old: oldPath, new: newPath, node: n, displaced: ffs.nodes[newPath]})
	delete(ffs.nodes, oldPath)
	ffs.nodes[newPath] = n
	return nil
}

func (ffs *FaultFS) Remove(path string) error {
	path = filepath.Clean(path)
	ffs.mu.Lock()
	defer ffs.mu.Unlock()
	if ffs.halted {
		return &fs.PathError{Op: "remove", Path: path, Err: ErrCrashed}
	}
	if _, ok := ffs.nodes[path]; !ok {
		return &fs.PathError{Op: "remove", Path: path, Err: fs.ErrNotExist}
	}
	delete(ffs.nodes, path)
	return nil
}

func (ffs *FaultFS) MkdirAll(path string, perm fs.FileMode) error {
	ffs.mu.Lock()
	defer ffs.mu.Unlock()
	if ffs.halted {
		return &fs.PathError{Op: "mkdir", Path: path, Err: ErrCrashed}
	}
	ffs.dirs[filepath.Clean(path)] = true
	return nil
}

// SyncDir makes durable every pending rename into path's directory.
// The name change then survives a crash, but the file's content
// durability is whatever its last Sync made it: a never-synced file
// renamed this way survives empty — the exact failure the
// sync-before-rename discipline exists to prevent.
func (ffs *FaultFS) SyncDir(path string) error {
	ffs.mu.Lock()
	defer ffs.mu.Unlock()
	if ffs.halted {
		return &fs.PathError{Op: "syncdir", Path: path, Err: ErrCrashed}
	}
	dir := filepath.Dir(filepath.Clean(path))
	pending := ffs.renames[:0]
	for _, r := range ffs.renames {
		if filepath.Dir(r.new) == dir {
			r.node.durableExists = true
			continue
		}
		pending = append(pending, r)
	}
	ffs.renames = pending
	return nil
}

// ---------- file handle ----------

type memFile struct {
	fs   *FaultFS
	node *memNode
	path string
	pos  int64 // sequential Read/Write cursor, per handle
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	fault, err := f.fs.step(OpRead, f.path)
	if err != nil {
		return 0, &fs.PathError{Op: "read", Path: f.path, Err: err}
	}
	if fault != nil && fault.Kind == KindErr {
		return 0, &fs.PathError{Op: "read", Path: f.path, Err: faultErr(fault)}
	}
	if off < 0 {
		return 0, &fs.PathError{Op: "read", Path: f.path, Err: fmt.Errorf("negative offset")}
	}
	size := int64(len(f.node.volatile))
	if off >= size {
		return 0, io.EOF
	}
	n := copy(p, f.node.volatile[off:])
	if fault != nil && fault.Kind == KindBitFlip && n > 0 {
		bit := fault.BitOffset % int64(n*8)
		if bit < 0 {
			bit = 0
		}
		p[bit/8] ^= 1 << (bit % 8)
	}
	// Mimic os.File: a short read at EOF reports io.EOF alongside the
	// bytes — the WAL tail scan and the page cache both rely on it.
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	fault, err := f.fs.step(OpWrite, f.path)
	if err != nil {
		return 0, &fs.PathError{Op: "write", Path: f.path, Err: err}
	}
	if off < 0 {
		return 0, &fs.PathError{Op: "write", Path: f.path, Err: fmt.Errorf("negative offset")}
	}
	data, werr := p, error(nil)
	if fault != nil {
		switch fault.Kind {
		case KindErr:
			return 0, &fs.PathError{Op: "write", Path: f.path, Err: faultErr(fault)}
		case KindTorn, KindENOSPC:
			keep := fault.Keep
			if keep > len(p) {
				keep = len(p)
			}
			data = p[:keep]
			werr = &fs.PathError{Op: "write", Path: f.path, Err: faultErr(fault)}
		}
	}
	if end := off + int64(len(data)); end > int64(len(f.node.volatile)) {
		grown := make([]byte, end)
		copy(grown, f.node.volatile)
		f.node.volatile = grown
	}
	copy(f.node.volatile[off:], data)
	if werr != nil {
		return len(data), werr
	}
	return len(p), nil
}

func (f *memFile) Read(p []byte) (int, error) {
	n, err := f.ReadAt(p, f.pos)
	f.pos += int64(n)
	return n, err
}

func (f *memFile) Write(p []byte) (int, error) {
	n, err := f.WriteAt(p, f.pos)
	f.pos += int64(n)
	return n, err
}

func (f *memFile) Sync() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	fault, err := f.fs.step(OpSync, f.path)
	if err != nil {
		return &fs.PathError{Op: "sync", Path: f.path, Err: err}
	}
	if f.node.poisoned != nil {
		f.fs.syncFailures++
		return &fs.PathError{Op: "sync", Path: f.path, Err: f.node.poisoned}
	}
	if fault != nil && (fault.Kind == KindErr || fault.Kind == KindENOSPC) {
		// fsync failure sticks: the dirty data may be gone, and claiming
		// a later fsync "worked" would hide that. Durable state is not
		// advanced now or ever until the file is reopened after a crash.
		f.node.poisoned = faultErr(fault)
		f.fs.syncFailures++
		return &fs.PathError{Op: "sync", Path: f.path, Err: f.node.poisoned}
	}
	f.node.durable = append([]byte(nil), f.node.volatile...)
	f.node.durableExists = true
	return nil
}

func (f *memFile) Truncate(size int64) error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.fs.halted {
		return &fs.PathError{Op: "truncate", Path: f.path, Err: ErrCrashed}
	}
	if size < 0 {
		return &fs.PathError{Op: "truncate", Path: f.path, Err: fmt.Errorf("negative size")}
	}
	cur := int64(len(f.node.volatile))
	switch {
	case size < cur:
		f.node.volatile = f.node.volatile[:size]
	case size > cur:
		grown := make([]byte, size)
		copy(grown, f.node.volatile)
		f.node.volatile = grown
	}
	return nil
}

func (f *memFile) Close() error { return nil }

func (f *memFile) Size() (int64, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.fs.halted {
		return 0, &fs.PathError{Op: "stat", Path: f.path, Err: ErrCrashed}
	}
	return int64(len(f.node.volatile)), nil
}

func faultErr(f *Fault) error {
	if f.Err != nil {
		return f.Err
	}
	if f.Kind == KindENOSPC {
		return ErrNoSpace
	}
	return ErrInjected
}
