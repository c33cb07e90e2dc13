package tensor

import "testing"

// A warm GetVector/PutVector cycle allocates nothing: neither the buffer,
// which comes back from the pool, nor the box it is pooled in.
func TestVectorPoolCycleAllocatesNothing(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector's sync.Pool drops puts at random")
	}
	PutVector(GetVector(4096))
	if allocs := testing.AllocsPerRun(100, func() { PutVector(GetVector(4096)) }); allocs != 0 {
		t.Fatalf("a warm GetVector/PutVector cycle made %.1f allocations, want 0", allocs)
	}
}
