package ingest

import "sync"

// idMapShards is the fixed shard count of an IDMap. Power of two so the
// shard pick is a mask.
const idMapShards = 64

// IDMap is a sharded external-key → internal-id map. The node phase
// fills it from the single-threaded apply step; the edge phase's
// prepare workers then resolve endpoint references concurrently without
// serialising on one map (stage 2 of the pipeline). Reads and writes
// may run concurrently.
type IDMap struct {
	shards [idMapShards]idMapShard
}

type idMapShard struct {
	mu sync.RWMutex
	m  map[int64]uint64
}

// NewIDMap returns an empty map.
func NewIDMap() *IDMap {
	im := &IDMap{}
	for i := range im.shards {
		im.shards[i].m = make(map[int64]uint64)
	}
	return im
}

// shardFor mixes the key so dense sequential ids spread across shards.
func (im *IDMap) shardFor(key int64) *idMapShard {
	h := uint64(key) * 0x9E3779B97F4A7C15
	return &im.shards[h>>(64-6)&(idMapShards-1)]
}

// Put records key → id.
func (im *IDMap) Put(key int64, id uint64) {
	s := im.shardFor(key)
	s.mu.Lock()
	s.m[key] = id
	s.mu.Unlock()
}

// Get resolves key, reporting whether it is present.
func (im *IDMap) Get(key int64) (uint64, bool) {
	s := im.shardFor(key)
	s.mu.RLock()
	id, ok := s.m[key]
	s.mu.RUnlock()
	return id, ok
}

// Len returns the number of stored keys.
func (im *IDMap) Len() int {
	n := 0
	for i := range im.shards {
		s := &im.shards[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}

// idMapBytesPerEntry is the estimated heap cost of one map entry: 16
// payload bytes (key + id) doubled for bucket slack, tophash bytes and
// overflow pointers at Go's ~6.5-entries-per-8-slot-bucket load factor.
const idMapBytesPerEntry = 32

// MemBytes estimates the map's heap footprint.
func (im *IDMap) MemBytes() int { return im.Len() * idMapBytesPerEntry }
