package agg

import (
	"math/rand"
	"strings"
	"testing"
	"time"
)

func newTestTrack() Track {
	return Track{Moments: &Moments{}, Hist: NewDurationHist(), Sketch: NewSketch(0)}
}

// foldTrack folds ds into t in one AddMulti run.
func foldTrack(t Track, ds []time.Duration) Track {
	fs := make([]float64, len(ds))
	for i, d := range ds {
		fs[i] = float64(d)
	}
	t.AddMulti(fs, ds)
	return t
}

// mergeTree merges parts pairwise, level by level, into one track.
func mergeTree(parts []Track) Track {
	for len(parts) > 1 {
		var next []Track
		for i := 0; i < len(parts); i += 2 {
			if i+1 < len(parts) {
				parts[i].Merge(parts[i+1])
			}
			next = append(next, parts[i])
		}
		parts = next
	}
	return parts[0]
}

// TestTrackAgree pins both halves of the agreement law. No false
// alarm: one observation multiset folded in one run, in shuffled runs,
// merged one single-observation track at a time, or merged as a
// balanced tree of 256 parts, agrees with itself in both directions.
// Every breach is reported: each term of the law is broken in turn,
// and the diff that term writes must be among those Agree returns.
func TestTrackAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	sample := sampleFor(rng, 4000)

	t.Run("no false alarm", func(t *testing.T) {
		whole := foldTrack(newTestTrack(), sample)

		shuffled := newTestTrack()
		for _, run := range chunkShuffle(rng, sample, 37) {
			foldTrack(shuffled, run)
		}

		single := newTestTrack()
		for _, d := range chunkShuffle(rng, sample, len(sample)) {
			single.Merge(foldTrack(newTestTrack(), d))
		}

		var parts []Track
		for _, run := range chunkShuffle(rng, sample, 256) {
			parts = append(parts, foldTrack(newTestTrack(), run))
		}
		tree := mergeTree(parts)

		for name, got := range map[string]Track{"shuffled runs": shuffled, "single merges": single, "merge tree": tree} {
			for dir, pair := range map[string][2]Track{"vs whole": {got, whole}, "whole vs": {whole, got}} {
				diffs, rel := pair[0].Agree(pair[1])
				for _, d := range diffs {
					t.Errorf("%s %s: false alarm: %s", name, dir, d)
				}
				if rel > 1e-9 {
					t.Errorf("%s %s: mean drift %g", name, dir, rel)
				}
			}
		}
	})

	// inRange finds an observation the histogram bins, away from its
	// edges, so moving it by a few ms stays in range.
	inRange := -1
	for i, d := range sample {
		if d > 10*time.Millisecond && d < 400*time.Millisecond {
			inRange = i
			break
		}
	}
	replaced := func(i int, d time.Duration) []time.Duration {
		s := append([]time.Duration(nil), sample...)
		s[i] = d
		return s
	}
	for _, tc := range []struct {
		name string
		// want is the prefix of the diff the broken term writes; "" means
		// the change is inside the law and Agree must report nothing.
		want  string
		build func() (got, ref Track)
	}{
		{"count", "sample count", func() (Track, Track) {
			return foldTrack(newTestTrack(), append(append([]time.Duration(nil), sample...), sample[0])),
				foldTrack(newTestTrack(), sample)
		}},
		{"mean past 1e-9", "mean", func() (Track, Track) {
			got := foldTrack(newTestTrack(), sample)
			got.Moments.Mean *= 1 + 3e-9
			return got, foldTrack(newTestTrack(), sample)
		}},
		{"mean inside 1e-9", "", func() (Track, Track) {
			got := foldTrack(newTestTrack(), sample)
			got.Moments.Mean *= 1 + 3e-10
			return got, foldTrack(newTestTrack(), sample)
		}},
		{"min", "min/max", func() (Track, Track) {
			got := foldTrack(newTestTrack(), sample)
			got.Moments.MinV--
			return got, foldTrack(newTestTrack(), sample)
		}},
		{"max", "min/max", func() (Track, Track) {
			got := foldTrack(newTestTrack(), sample)
			got.Moments.MaxV++
			return got, foldTrack(newTestTrack(), sample)
		}},
		{"under", "histogram under/over", func() (Track, Track) {
			return foldTrack(newTestTrack(), replaced(inRange, -time.Millisecond)), foldTrack(newTestTrack(), sample)
		}},
		{"over", "histogram under/over", func() (Track, Track) {
			return foldTrack(newTestTrack(), replaced(inRange, 600*time.Millisecond)), foldTrack(newTestTrack(), sample)
		}},
		{"one bucket", "histogram bucket", func() (Track, Track) {
			return foldTrack(newTestTrack(), replaced(inRange, sample[inRange]+2*time.Millisecond)),
				foldTrack(newTestTrack(), sample)
		}},
		{"sketch min", "sketch min/max", func() (Track, Track) {
			got := foldTrack(newTestTrack(), sample)
			got.Sketch.MinV--
			return got, foldTrack(newTestTrack(), sample)
		}},
		{"sketch max", "sketch min/max", func() (Track, Track) {
			got := foldTrack(newTestTrack(), sample)
			got.Sketch.MaxV++
			return got, foldTrack(newTestTrack(), sample)
		}},
		{"sketch quantile past the bracket", "sketch p50", func() (Track, Track) {
			got := foldTrack(newTestTrack(), sample)
			got.Sketch.Flush()
			for i := range got.Sketch.Centroids {
				got.Sketch.Centroids[i].Mean = got.Sketch.MaxV
			}
			return got, foldTrack(newTestTrack(), sample)
		}},
		{"coverage", "coverage:", func() (Track, Track) {
			got := foldTrack(newTestTrack(), sample)
			got.Sketch.Count++
			return got, foldTrack(newTestTrack(), sample)
		}},
		{"reference coverage", "reference coverage:", func() (Track, Track) {
			ref := foldTrack(newTestTrack(), sample)
			ref.Hist = NewDurationHist()
			return foldTrack(newTestTrack(), sample), ref
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, ref := tc.build()
			diffs, _ := got.Agree(ref)
			if tc.want == "" {
				for _, d := range diffs {
					t.Errorf("false alarm: %s", d)
				}
				return
			}
			for _, d := range diffs {
				if strings.HasPrefix(d, tc.want) {
					return
				}
			}
			t.Errorf("breach not reported as %q; diffs: %q", tc.want, diffs)
		})
	}
}

// FuzzTrackAgree: any observation set, folded as one run and as a
// random split whose parts merge in random order, agrees with no diffs
// in both directions. Observations are non-negative durations, as RTTs
// are: data[0] picks a unit of 2^k ns, and each following byte pair is
// one observation in that unit, so the values range from sub-µs runs
// of ties to seconds past the histogram cap. split seeds how the
// observations are dealt into parts and the merge order.
func FuzzTrackAgree(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, split uint64) {
		if len(data) == 0 {
			return
		}
		unit := time.Duration(1) << (data[0] % 24)
		var ds []time.Duration
		for i := 1; i+1 < len(data) && len(ds) < 4096; i += 2 {
			ds = append(ds, time.Duration(int(data[i])<<8|int(data[i+1]))*unit)
		}
		whole := foldTrack(newTestTrack(), ds)

		rng := rand.New(rand.NewSource(int64(split)))
		parts := make([][]time.Duration, 1+rng.Intn(64))
		for _, d := range ds {
			k := rng.Intn(len(parts))
			parts[k] = append(parts[k], d)
		}
		merged := newTestTrack()
		for _, k := range rng.Perm(len(parts)) {
			merged.Merge(foldTrack(newTestTrack(), parts[k]))
		}
		for dir, pair := range map[string][2]Track{"split vs whole": {merged, whole}, "whole vs split": {whole, merged}} {
			diffs, _ := pair[0].Agree(pair[1])
			for _, d := range diffs {
				t.Errorf("%s (%d observations, %d parts): %s", dir, len(ds), len(parts), d)
			}
		}
	})
}
