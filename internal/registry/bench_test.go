package registry

import (
	"testing"
)

// BenchmarkRegistryObtainHit is the steady-state multi-tenant path: the
// network is resident, so Obtain is a key derivation plus an LRU touch —
// the cost every request pays before routing.
func BenchmarkRegistryObtainHit(b *testing.B) {
	r := New(Config{Capacity: 4})
	spec := Spec{Kind: "grid", Rows: 16, Cols: 16, Seed: 7}
	if _, _, err := r.Obtain(spec); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, cached, err := r.Obtain(spec); err != nil || !cached {
			b.Fatalf("cached=%v err=%v", cached, err)
		}
	}
}

// BenchmarkRegistryObtainMiss is the cold path: every iteration names a
// network the registry has never seen, paying the full generator + engine
// compile (degree reduction, flat snapshot) — what the cache and
// singleflight save every other request.
func BenchmarkRegistryObtainMiss(b *testing.B) {
	r := New(Config{Capacity: 2})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec := Spec{Kind: "grid", Rows: 16, Cols: 16, Seed: uint64(i) + 1000}
		if _, cached, err := r.Obtain(spec); err != nil || cached {
			b.Fatalf("cached=%v err=%v", cached, err)
		}
	}
}
