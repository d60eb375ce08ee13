package sparkdb

import (
	"twigraph/internal/bitmap"
)

// Run-container compression management. The engine's bitmaps — type
// member sets, link maps, materialised neighbor indexes, attribute
// posting lists — are re-represented at their minimum serialized size
// (array ↔ run ↔ bitset) before every Save and after Load, which is
// what lets a paper-scale image fit in memory: bulk-loaded extents are
// contiguous OID ranges and collapse to a handful of 4-byte runs.

// Gauge names for the container mix, surfaced through `:stats` and the
// telemetry /metrics endpoint.
const (
	GBitmapArrayContainers  = "bitmap_array_containers"
	GBitmapRunContainers    = "bitmap_run_containers"
	GBitmapBitsetContainers = "bitmap_bitset_containers"
	GBitmapMemBytes         = "bitmap_mem_bytes"
)

// BitmapStats aggregates the container mix and estimated heap bytes of
// every bitmap the engine holds.
type BitmapStats struct {
	Arrays, Runs, Bitsets int // containers per representation
	MemBytes              int // estimated heap footprint
}

// Containers returns the total container count.
func (s BitmapStats) Containers() int { return s.Arrays + s.Runs + s.Bitsets }

// Optimize re-represents every bitmap at its minimum serialized size,
// refreshes the container-mix gauges, and returns the aggregate stats.
// It runs automatically before Save and after Load; bulk loaders may
// also call it once ingest settles. Like every mutation it excludes
// concurrent readers via the database lock.
func (db *DB) Optimize() BitmapStats {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.optimizeLocked()
}

func (db *DB) optimizeLocked() BitmapStats {
	var st BitmapStats
	db.forEachBitmap(func(b *bitmap.Bitmap) {
		b.Optimize()
		st.add(b)
	})
	db.setBitmapGauges(st)
	return st
}

// BitmapStats recomputes the container mix without re-representing
// anything, refreshing the gauges as a side effect.
func (db *DB) BitmapStats() BitmapStats {
	db.mu.RLock()
	var st BitmapStats
	db.forEachBitmap(func(b *bitmap.Bitmap) { st.add(b) })
	db.mu.RUnlock()
	db.setBitmapGauges(st)
	return st
}

func (st *BitmapStats) add(b *bitmap.Bitmap) {
	a, r, s := b.ContainerCounts()
	st.Arrays += a
	st.Runs += r
	st.Bitsets += s
	st.MemBytes += b.MemBytes()
}

func (db *DB) setBitmapGauges(st BitmapStats) {
	db.reg.Gauge(GBitmapArrayContainers).Set(int64(st.Arrays))
	db.reg.Gauge(GBitmapRunContainers).Set(int64(st.Runs))
	db.reg.Gauge(GBitmapBitsetContainers).Set(int64(st.Bitsets))
	db.reg.Gauge(GBitmapMemBytes).Set(int64(st.MemBytes))
}

// forEachBitmap visits every bitmap the engine owns. Caller holds
// db.mu (read access suffices for visiting, write access for
// re-representing).
func (db *DB) forEachBitmap(fn func(*bitmap.Bitmap)) {
	for _, ti := range db.types {
		fn(ti.objects)
		for _, b := range ti.outLinks {
			fn(b)
		}
		for _, b := range ti.inLinks {
			fn(b)
		}
		for _, b := range ti.outNbrs {
			fn(b)
		}
		for _, b := range ti.inNbrs {
			fn(b)
		}
	}
	for _, ai := range db.attrs {
		for _, b := range ai.index {
			fn(b)
		}
	}
}
