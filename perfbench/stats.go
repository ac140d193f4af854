package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by nearest rank (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// median is the middle value of xs, averaging the two middle values of
// an even count (0 for none).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// medianOf returns, for every key in the per-iteration maps, the median
// of its values across iterations.
func medianOf(its []map[string]float64) map[string]float64 {
	vals := map[string][]float64{}
	for _, m := range its {
		for k, v := range m {
			vals[k] = append(vals[k], v)
		}
	}
	out := make(map[string]float64, len(vals))
	for k, v := range vals {
		out[k] = median(v)
	}
	return out
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// minSetups is how many set-ups a run times at least, so setup_s is a
// median of many even when the run fits few iterations.
const minSetups = 31

// topUpSetups times further set-ups, each from a collected heap, until
// there are minSetups samples. setup returns the cleanup of what it
// built, which runs outside the timing.
func topUpSetups(setups []time.Duration, setup func() (cleanup func(), err error)) ([]time.Duration, error) {
	for len(setups) < minSetups {
		runtime.GC()
		t0 := time.Now()
		cleanup, err := setup()
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0))
		cleanup()
	}
	return setups, nil
}

// loop calls one until the pass's time budget is spent: at least once,
// and never starting an iteration that would, at the mean pace so far,
// end past the budget. Each iteration starts from a collected heap, so
// garbage left by the previous one is not charged to it.
func loop(budget time.Duration, one func() error) error {
	start := time.Now()
	for n := 1; ; n++ {
		runtime.GC()
		if err := one(); err != nil {
			return err
		}
		el := time.Since(start)
		if el+el/time.Duration(n) > budget {
			return nil
		}
	}
}
