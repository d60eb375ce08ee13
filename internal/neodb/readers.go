package neodb

import "time"

// Readers and page frames. A Reader pins at most one page per store
// file, and unpins it before it pins another, so as many Readers as a
// file cache has frames can be open at once with every read still
// finding a frame. A query execution always holds one Reader. A
// parallel read borrows more only while the count stays within that
// many frames, and gives each back at its next morsel boundary once an
// execution that starts needs the frame; the execution waits for that.
// So borrowed Readers never make a read fail that would succeed with
// the executions' Readers alone.
//
// db.readers counts the executions' Readers in its low 32 bits and the
// borrowed ones above them.
const borrowed = 1 << 32

// maxReaders is how many Readers fit the page caches' frames.
func (db *DB) maxReaders() int64 { return int64(db.cfg.CachePages) }

// crowded reports whether the Readers counted in v do not all fit.
func (db *DB) crowded(v int64) bool {
	return v/borrowed+v%borrowed > db.maxReaders()
}

// HoldReader records the Reader of a query execution, waiting while
// borrowed Readers take the frames it may need. ReleaseReader undoes it.
func (db *DB) HoldReader() {
	for v := db.readers.Add(1); v >= borrowed && db.crowded(v); v = db.readers.Load() {
		time.Sleep(20 * time.Microsecond)
	}
}

// ReleaseReader records that an execution closed its Reader.
func (db *DB) ReleaseReader() { db.readers.Add(-1) }

// BorrowReaders borrows up to want Readers, as many as still fit the
// frames beside every Reader open, and returns how many; each goes back
// with ReturnReader.
func (db *DB) BorrowReaders(want int) int {
	for {
		v := db.readers.Load()
		n := min(int64(want), db.maxReaders()-v/borrowed-v%borrowed)
		if n <= 0 {
			return 0
		}
		if db.readers.CompareAndSwap(v, v+n*borrowed) {
			return int(n)
		}
	}
}

// ReturnReader gives back one borrowed Reader.
func (db *DB) ReturnReader() { db.readers.Add(-borrowed) }

// ReadersCrowded reports whether borrowed Readers take frames an
// execution's Reader needs: a borrower then closes one Reader and
// returns it.
func (db *DB) ReadersCrowded() bool {
	v := db.readers.Load()
	return v >= borrowed && db.crowded(v)
}
