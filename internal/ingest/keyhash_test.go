package ingest

import (
	"fmt"
	"testing"
)

// TestKeyHashSpread pins the routing hash's spread on the key shape an
// unmixed FNV-1a collapses: one scenario, one window, and a group that
// is the device (set explicitly, or left empty so GroupLabel defaults
// it). Repeating a field cancels its parity in FNV-1a's bit 0, so
// without the fmix64 finalizer every such key hashes even, lands on
// one pipe of two and on even stripes only.
func TestKeyHashSpread(t *testing.T) {
	st := NewStore(0, DefaultStoreShards)
	stripes := uint64(len(st.shards))
	names := make([]string, 1000)
	for i := range names {
		names[i] = fmt.Sprintf("device-%04d", i)
	}
	// The five Table 1 phone models, written out so this test needs no
	// phone model package.
	table1 := []string{"Google Nexus 5", "Google Nexus 4", "HTC One", "Sony Xperia J", "Samsung Grand"}

	for _, shape := range []struct {
		name  string
		group func(dev string) string
	}{
		{"group=device", func(dev string) string { return dev }},
		{"group empty", func(string) string { return "" }},
	} {
		t.Run(shape.name, func(t *testing.T) {
			hashes := func(devs []string) []uint64 {
				hs := make([]uint64, len(devs))
				for i, dev := range devs {
					s := Summary{Device: dev, Group: shape.group(dev), Scenario: "hot-cells", TimeMS: 1_700_000_000_000}
					hs[i] = keyHash(st.KeyFor(&s))
				}
				return hs
			}
			hs := hashes(names)

			for _, n := range []uint64{2, 4, 8} {
				perPipe := make([]int, n)
				for _, h := range hs {
					perPipe[h%n]++
				}
				fair := float64(len(hs)) / float64(n)
				for _, c := range perPipe {
					if float64(c) < 0.75*fair || float64(c) > 1.25*fair {
						t.Errorf("n=%d: %d keys split %v, want %.0f±25%% per pipe", n, len(hs), perPipe, fair)
						break
					}
				}
				if stripes%n != 0 {
					continue
				}
				// Every key of one stripe is folded by the same pipe.
				pipeOf := make(map[uint64]uint64)
				for _, h := range hs {
					stripe, pipe := h%stripes, h%n
					if prev, ok := pipeOf[stripe]; ok && prev != pipe {
						t.Errorf("n=%d: stripe %d maps to pipes %d and %d", n, stripe, prev, pipe)
					}
					pipeOf[stripe] = pipe
				}
			}

			used := make(map[uint64]bool)
			for _, h := range hs {
				used[h%stripes] = true
			}
			if len(used) != int(stripes) {
				t.Errorf("%d of %d stripes used", len(used), stripes)
			}

			var perPipe [2]int
			for _, h := range hashes(table1) {
				perPipe[h%2]++
			}
			if perPipe[0] == 0 || perPipe[1] == 0 {
				t.Errorf("Table 1 models split %d:%d over two pipes, want both used", perPipe[0], perPipe[1])
			}
		})
	}
}
