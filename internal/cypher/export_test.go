package cypher

// forceMatrix runs every eligible var-length expansion algebraically,
// whatever its density, so small test graphs cover the gather.
func (e *Engine) forceMatrix() { e.setMatrixMode(matrixForced) }
