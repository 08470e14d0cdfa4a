package branch

import (
	"testing"

	"pinnedloads/internal/xrand"
)

// accuracy trains a predictor on a deterministic outcome function and
// returns its hit rate over the last half of the run.
func accuracy(p *TAGE, outcome func(i int, pc uint64) bool, n int) float64 {
	hits, measured := 0, 0
	for i := 0; i < n; i++ {
		pc := uint64(0x400000 + 4*(i%16))
		taken := outcome(i, pc)
		pred := p.Predict(pc)
		if i >= n/2 {
			measured++
			if pred == taken {
				hits++
			}
		}
		p.Update(pc, taken)
	}
	return float64(hits) / float64(measured)
}

func TestTAGELearnsBias(t *testing.T) {
	// Always-taken branches must be predicted nearly perfectly.
	acc := accuracy(NewTAGE(10, 9), func(int, uint64) bool { return true }, 4000)
	if acc < 0.99 {
		t.Fatalf("always-taken accuracy %.3f", acc)
	}
}

func TestTAGELearnsAlternating(t *testing.T) {
	// A strict alternation is history-predictable.
	acc := accuracy(NewTAGE(10, 9), func(i int, _ uint64) bool { return i%2 == 0 }, 8000)
	if acc < 0.9 {
		t.Fatalf("alternating accuracy %.3f", acc)
	}
}

func TestTAGELearnsLongPattern(t *testing.T) {
	// A period-12 pattern needs long history; TAGE should learn it.
	pattern := []bool{true, true, false, true, false, false, true, false, true, true, false, false}
	acc := accuracy(NewTAGE(10, 9), func(i int, _ uint64) bool { return pattern[i%len(pattern)] }, 30000)
	if acc < 0.85 {
		t.Fatalf("TAGE period-12 accuracy %.3f", acc)
	}
}

func TestPredictorsOnRandom(t *testing.T) {
	// Random outcomes: accuracy should hover near 50%, not crash.
	rng := xrand.New(7)
	acc := accuracy(NewTAGE(10, 9), func(int, uint64) bool { return rng.Bool(0.5) }, 10000)
	if acc < 0.3 || acc > 0.7 {
		t.Fatalf("random-outcome accuracy %.3f implausible", acc)
	}
}

func TestFoldHistory(t *testing.T) {
	// Folding must be deterministic and within range.
	for h := uint64(0); h < 1000; h += 13 {
		f := foldHistory(h, 16, 9)
		if f >= 1<<9 {
			t.Fatalf("foldHistory out of range: %d", f)
		}
		if f != foldHistory(h, 16, 9) {
			t.Fatal("foldHistory not deterministic")
		}
	}
}
