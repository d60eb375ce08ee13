package twitter

// ForcePath pins the multi-hop queries to the algebraic path (matrix)
// or the navigational path, whatever the frontier density, and shards
// every frontier of 8 items or more 8 ways. It is a test seam: small
// test graphs send Tuned to the matrix path almost every time, and
// their frontiers rarely reach the production sharding cutoff.
func (s *NeoStore) ForcePath(matrix bool) { s.mode = forcedMode(matrix) }

// ForcePath is NeoStore.ForcePath for the Sparksee analog.
func (s *SparkStore) ForcePath(matrix bool) { s.mode = forcedMode(matrix) }

func forcedMode(matrix bool) execMode {
	return execMode{gate: matrix, forceMatrix: matrix, workers: 8, minPerShard: 1}
}

// SetWorkers gives the store's mode n workers in place of GOMAXPROCS
// (or ForcePath's 8).
func (s *NeoStore) SetWorkers(n int) { s.mode.workers = n }
