package simtime

import (
	"testing"
	"time"
)

// BenchmarkSimPost prices one fire and one Post in steady state: 64
// events stay queued, and each one posts its successor when it fires.
// Posted events come back through the free list, so it allocates
// nothing.
func BenchmarkSimPost(b *testing.B) {
	s := New(1)
	n := 0
	var fire func()
	fire = func() {
		n++
		s.Post(time.Duration(n*7919%1000)*time.Microsecond, fire)
	}
	for k := 0; k < 64; k++ {
		s.Post(time.Duration(k)*time.Microsecond, fire)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}
