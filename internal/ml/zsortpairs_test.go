package ml

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// sortSliceOrder returns the permutation the split search used to get
// from sort.Slice: indices ordered by vals, ties left wherever pdqsort
// leaves them.
func sortSliceOrder(vals []float64) []int {
	idx := identity(len(vals))
	sort.Slice(idx, func(a, b int) bool { return vals[idx[a]] < vals[idx[b]] })
	return idx
}

// sortPairsOrder returns the permutation sortPairs applies, read back
// from y, which carries each pair's original position.
func sortPairsOrder(vals []float64) []int {
	pairs := make([]splitPair, len(vals))
	for i, v := range vals {
		pairs[i] = splitPair{v: v, y: float64(i)}
	}
	sortPairs(pairs)
	order := make([]int, len(pairs))
	for k, p := range pairs {
		order[k] = int(p.y)
	}
	return order
}

func checkSameOrder(t *testing.T, name string, vals []float64) {
	t.Helper()
	want, got := sortSliceOrder(vals), sortPairsOrder(vals)
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("%s (n=%d): permutations differ at %d: sortPairs put row %d, sort.Slice row %d",
				name, len(vals), k, got[k], want[k])
		}
	}
}

// adversary is McIlroy's "killer adversary for quicksort" (Software:
// Practice and Experience, 1999) as a sort.Interface: values start as
// gas and are fixed lazily, one per comparison of two gas values, so
// that the guessed pivot loses. Here gas sorts below every fixed value
// and fixed values count down; this mirror of the original defeats
// pdqsort's sorted-run detection and uses up its bad-pivot budget, so
// replaying the result drives the heapsort fallback.
type adversary struct {
	val, orig []int // current values and original positions, swapped together
	next      int   // value given to the next frozen element
	candidate int   // guess at the current pivot position
}

const gas = -1

func (d *adversary) Len() int { return len(d.val) }

func (d *adversary) Swap(i, j int) {
	d.val[i], d.val[j] = d.val[j], d.val[i]
	d.orig[i], d.orig[j] = d.orig[j], d.orig[i]
}

func (d *adversary) Less(i, j int) bool {
	if d.val[i] == gas && d.val[j] == gas {
		if i == d.candidate {
			d.val[i] = d.next
		} else {
			d.val[j] = d.next
		}
		d.next--
	}
	if d.val[i] == gas {
		d.candidate = i
	} else if d.val[j] == gas {
		d.candidate = j
	}
	return d.val[i] < d.val[j]
}

// killerInput returns the input of length n the adversary built.
func killerInput(n int) []float64 {
	d := &adversary{val: make([]int, n), orig: identity(n), next: n}
	for i := range d.val {
		d.val[i] = gas
	}
	sort.Sort(d)
	out := make([]float64, n)
	for k, o := range d.orig {
		out[o] = float64(d.val[k])
	}
	return out
}

// TestSortPairsMatchesSortSlice: the vendored sort leaves exactly the
// permutation sort.Slice leaves, on the tie-heavy inputs the split
// search sees (0/1 columns, a few distinct levels, constant columns) and
// on the shapes that steer pdqsort into each of its paths: short runs
// (insertion sort), sorted and reversed runs (partial insertion sort,
// reversal), long runs (Tukey ninther), many duplicates (partitionEqual)
// and the adversary (heapsort).
func TestSortPairsMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	patterns := map[string]func(i, n int) float64{
		"zero-one":  func(i, n int) float64 { return float64(rng.Intn(2)) },
		"three":     func(i, n int) float64 { return float64(rng.Intn(3)) },
		"few":       func(i, n int) float64 { return float64(rng.Intn(7)) * 0.25 },
		"all-equal": func(i, n int) float64 { return 4 },
		"sorted":    func(i, n int) float64 { return float64(i / 3) },
		"reversed":  func(i, n int) float64 { return float64(n - i) },
		"descents":  func(i, n int) float64 { return float64((n - i) / 3) },
		"organ":     func(i, n int) float64 { return float64(min(i, n-i) / 2) },
		"sawtooth":  func(i, n int) float64 { return float64(i % 17) },
		"distinct":  func(i, n int) float64 { return rng.Float64() },
		"nan": func(i, n int) float64 {
			if rng.Intn(5) == 0 {
				return math.NaN()
			}
			return float64(rng.Intn(4))
		},
	}
	lengths := []int{0, 1, 2, 3, 7, 12, 13, 49, 50, 51, 64, 100, 257, 500, 1000, 2000}
	for name, gen := range patterns {
		for _, n := range lengths {
			for rep := 0; rep < 3; rep++ {
				vals := make([]float64, n)
				for i := range vals {
					vals[i] = gen(i, n)
				}
				checkSameOrder(t, name, vals)
			}
		}
	}
	for _, n := range []int{13, 50, 100, 1000, 2000} {
		checkSameOrder(t, "adversary", killerInput(n))
	}
}

// FuzzSortPairs: for any input the vendored sort and sort.Slice agree.
// The first byte picks how many distinct values the rest map to, so the
// fuzzer stays in tie-heavy territory.
func FuzzSortPairs(f *testing.F) {
	f.Add([]byte{1, 0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 0, 1, 0, 1})
	f.Add([]byte{2, 5, 4, 3, 2, 1, 0, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0})
	f.Add([]byte{255, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		levels := int(data[0]) + 1
		vals := make([]float64, len(data)-1)
		for i, b := range data[1:] {
			vals[i] = float64(int(b) % levels)
		}
		checkSameOrder(t, "fuzz", vals)
	})
}
