//go:build race

package tensor

// raceBuild reports a -race test binary, whose sync.Pool drops a share of
// every Put on purpose: allocation counts over pooled buffers mean nothing
// there.
const raceBuild = true
