//go:build race

package experiments

// raceBuild reports a -race test binary. The race detector is there for
// the protocol's concurrency, which one tiny round exercises as fully as a
// paper-scale run does, at several times the cost of every training step:
// see testScale and skipAttackGrid.
const raceBuild = true
