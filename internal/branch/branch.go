// Package branch provides the table-based branch-direction predictor of
// the simulated frontend. The paper's machine uses an LTAGE predictor with
// a 4096-entry BTB and a 16-entry RAS; this package implements a TAGE-lite
// direction predictor of that family, which Config.RealPredictor selects.
//
// The synthetic workload proxies (package trace) use the parametric
// predictor by default: each proxy encodes its application's published
// misprediction behaviour directly, which is what determines how control
// dependences delay the Visibility Point. TAGE exercises the same pipeline
// interfaces on generated PC streams.
package branch

// counter is a 2-bit saturating counter; values >= 2 predict taken.
type counter uint8

func (c counter) taken() bool { return c >= 2 }

func (c counter) train(taken bool) counter {
	if taken {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > 0 {
		return c - 1
	}
	return c
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
