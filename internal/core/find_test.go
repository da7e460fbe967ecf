package core

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pstlbench/internal/exec"
	"pstlbench/internal/native"
)

func TestFindMatchesSequentialReference(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, p Policy) {
		rng := rand.New(rand.NewSource(7))
		for _, n := range testSizes {
			s := randomInts(rng, n, 50)
			for trial := 0; trial < 5; trial++ {
				v := rng.Intn(60) // sometimes absent
				want := -1
				for i, e := range s {
					if e == v {
						want = i
						break
					}
				}
				if got := Find(p, s, v); got != want {
					t.Fatalf("n=%d v=%d: Find=%d want %d", n, v, got, want)
				}
			}
		}
	})
}

func TestFindReturnsFirstOccurrence(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, p Policy) {
		s := make([]int, 20000)
		// Plant duplicates at several positions; Find must return the
		// earliest even when a later chunk finds its copy first.
		for _, pos := range []int{19999, 15000, 8000, 3001} {
			s[pos] = 9
		}
		if got := Find(p, s, 9); got != 3001 {
			t.Fatalf("Find = %d, want 3001", got)
		}
	})
}

func TestFindPaperScenario(t *testing.T) {
	// The paper's X::find: v = [1..n], search for a random element.
	forEachPolicy(t, func(t *testing.T, p Policy) {
		rng := rand.New(rand.NewSource(42))
		s := iota(1 << 15)
		for trial := 0; trial < 10; trial++ {
			want := rng.Intn(len(s))
			if got := Find(p, s, float64(want+1)); got != want {
				t.Fatalf("Find(%d) = %d", want+1, got)
			}
		}
	})
}

func TestFindIfAndFindIfNot(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, p Policy) {
		s := iota(10000)
		if got := FindIf(p, s, func(v float64) bool { return v > 5000 }); got != 5000 {
			t.Fatalf("FindIf = %d", got)
		}
		if got := FindIf(p, s, func(v float64) bool { return v < 0 }); got != -1 {
			t.Fatalf("FindIf absent = %d", got)
		}
		if got := FindIfNot(p, s, func(v float64) bool { return v < 9000 }); got != 8999 {
			t.Fatalf("FindIfNot = %d", got)
		}
		if got := FindIfNot(p, s, func(v float64) bool { return v > 0 }); got != -1 {
			t.Fatalf("FindIfNot all-true = %d", got)
		}
	})
}

func TestFindEmptyAndSingleton(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, p Policy) {
		if got := Find(p, []int{}, 1); got != -1 {
			t.Fatalf("empty: %d", got)
		}
		if got := Find(p, []int{5}, 5); got != 0 {
			t.Fatalf("singleton hit: %d", got)
		}
		if got := Find(p, []int{5}, 6); got != -1 {
			t.Fatalf("singleton miss: %d", got)
		}
	})
}

func TestFindFirstOf(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, p Policy) {
		s := []int{9, 8, 7, 2, 6, 3, 5}
		if got := FindFirstOf(p, s, []int{3, 2}); got != 3 {
			t.Fatalf("FindFirstOf = %d", got)
		}
		if got := FindFirstOf(p, s, []int{100}); got != -1 {
			t.Fatalf("FindFirstOf absent = %d", got)
		}
		if got := FindFirstOf(p, s, nil); got != -1 {
			t.Fatalf("FindFirstOf empty set = %d", got)
		}
	})
}

func TestAdjacentFind(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, p Policy) {
		eq := func(a, b int) bool { return a == b }
		s := make([]int, 20000)
		for i := range s {
			s[i] = i
		}
		if got := AdjacentFind(p, s, eq); got != -1 {
			t.Fatalf("no adjacent pair expected, got %d", got)
		}
		s[12345] = s[12344]
		if got := AdjacentFind(p, s, eq); got != 12344 {
			t.Fatalf("AdjacentFind = %d, want 12344", got)
		}
		if got := AdjacentFind(p, []int{1}, eq); got != -1 {
			t.Fatalf("singleton: %d", got)
		}
		if got := AdjacentFind(p, []int{}, eq); got != -1 {
			t.Fatalf("empty: %d", got)
		}
	})
}

func TestSearch(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, p Policy) {
		s := []byte("the quick brown fox jumps over the lazy dog the end")
		cases := []struct {
			sub  string
			want int
		}{
			{"the", 0},
			{"fox", 16},
			{"end", 48},
			{"cat", -1},
			{"", 0},
			{"the quick brown fox jumps over the lazy dog the end!", -1},
		}
		for _, c := range cases {
			if got := Search(p, s, []byte(c.sub)); got != c.want {
				t.Fatalf("Search(%q) = %d, want %d", c.sub, got, c.want)
			}
		}
	})
}

func TestSearchLargeInput(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, p Policy) {
		s := make([]int, 40000)
		sub := []int{1, 2, 3, 4}
		copy(s[33333:], sub)
		if got := Search(p, s, sub); got != 33333 {
			t.Fatalf("Search = %d", got)
		}
	})
}

func TestSearchN(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, p Policy) {
		s := []int{1, 0, 0, 1, 0, 0, 0, 1}
		if got := SearchN(p, s, 3, 0); got != 4 {
			t.Fatalf("SearchN = %d, want 4", got)
		}
		if got := SearchN(p, s, 4, 0); got != -1 {
			t.Fatalf("SearchN(4) = %d", got)
		}
		if got := SearchN(p, s, 0, 0); got != 0 {
			t.Fatalf("SearchN(0) = %d", got)
		}
	})
}

func TestFindEnd(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, p Policy) {
		s := []int{1, 2, 3, 1, 2, 3, 1, 2}
		if got := FindEnd(p, s, []int{1, 2, 3}); got != 3 {
			t.Fatalf("FindEnd = %d, want 3", got)
		}
		if got := FindEnd(p, s, []int{1, 2}); got != 6 {
			t.Fatalf("FindEnd trailing = %d, want 6", got)
		}
		if got := FindEnd(p, s, []int{7}); got != -1 {
			t.Fatalf("FindEnd absent = %d", got)
		}
		if got := FindEnd(p, s, nil); got != len(s) {
			t.Fatalf("FindEnd empty = %d", got)
		}
		if got := FindEnd(p, []int{1}, []int{1, 2}); got != -1 {
			t.Fatalf("FindEnd longer-sub = %d", got)
		}
	})
}

// findFamily runs every algorithm that scans through findFirst over s, a
// slice of zeros whose ones are planted matches, and returns the results in
// a fixed order. Find, Mismatch and FindEnd come first: their answers are
// the earliest, earliest and last planted index.
func findFamily(p Policy, s []int) []int {
	zeros := make([]int, len(s))
	b2i := func(b bool) int {
		if b {
			return 1
		}
		return 0
	}
	return []int{
		Find(p, s, 1),
		Mismatch(p, zeros, s),
		FindEnd(p, s, []int{1}),
		FindIf(p, s, func(v int) bool { return v == 1 }),
		FindIfNot(p, s, func(v int) bool { return v == 0 }),
		FindFirstOf(p, s, []int{7, 1}),
		AdjacentFind(p, s, func(a, b int) bool { return a != b }),
		Search(p, s, []int{1}),
		Search(p, s, []int{0, 1}),
		SearchN(p, s, 1, 1),
		SearchN(p, s, 2, 1),
		FindEnd(p, s, []int{1, 0}),
		MismatchFunc(p, s, zeros, func(x, y int) bool { return x == y }),
		b2i(LexicographicalCompare(p, zeros, s, intLess)),
		IsHeapUntil(p, s, intLess),
		IsSortedUntil(p, s, func(a, b int) bool { return a > b }),
	}
}

// checkFindFamily plants ones at marks in an n-element slice and checks
// every find-family result on p against the sequential policy's, and the
// first three against the marks themselves.
func checkFindFamily(t *testing.T, p Policy, n int, marks []int) {
	t.Helper()
	s := make([]int, n)
	for _, m := range marks {
		s[m] = 1
	}
	want := findFamily(Seq(), s)
	if got := findFamily(p, s); !slices.Equal(got, want) {
		t.Fatalf("n=%d marks=%v: parallel %v, sequential %v", n, marks, got, want)
	}
	first, last := -1, -1
	if len(marks) > 0 {
		first, last = slices.Min(marks), slices.Max(marks)
	}
	if want[0] != first || want[1] != first || want[2] != last {
		t.Fatalf("n=%d marks=%v: Find, Mismatch, FindEnd = %v, want %d, %d, %d", n, marks, want[:3], first, first, last)
	}
}

// TestFindFamilyBlockBoundaries puts the match where the block scanner
// changes hands: at the first and last index, on both sides of the first
// findBlock boundary, and at both ends of every chunk of p.Chunks(n) (and
// their mirror images, which FindEnd scans first). Each position runs
// alone, with a later match, and all together; the earliest must win.
func TestFindFamilyBlockBoundaries(t *testing.T) {
	grains := map[string]exec.Grain{"auto": exec.Auto, "static": exec.Static, "guided": exec.Guided, "cpw7": {ChunksPerWorker: 7}}
	for _, w := range []int{2, 3} {
		pool := native.New(w, native.StrategyStealing)
		defer pool.Close()
		for gname, g := range grains {
			p := Par(pool).WithGrain(g)
			for _, n := range []int{3*findBlock + 5, 8*findBlock + 3} {
				t.Run(fmt.Sprintf("w=%d/%s/n=%d", w, gname, n), func(t *testing.T) {
					pos := []int{0, findBlock - 1, findBlock, findBlock + 1, n - 1}
					cs := p.Chunks(n)
					for ci := 0; ci < cs.Len(); ci++ {
						c := cs.At(ci)
						pos = append(pos, c.Lo, c.Hi-1)
					}
					for _, i := range slices.Clone(pos) {
						pos = append(pos, n-1-i)
					}
					slices.Sort(pos)
					pos = slices.Compact(pos)
					checkFindFamily(t, p, n, nil)
					checkFindFamily(t, p, n, pos)
					checkFindFamily(t, p, n, pos[1:])
					for _, i := range pos {
						checkFindFamily(t, p, n, []int{i})
						checkFindFamily(t, p, n, []int{i, (i + n) / 2})
					}
				})
			}
		}
	}
}

// FuzzFindFirst decodes bytes into a size, worker count, grain and match
// positions, then checks every find-family algorithm against the
// sequential policy. Byte 0 picks the worker count (2 or 3), byte 1 the
// grain, bytes 2-3 the size; each further pair of bytes is a match
// position modulo the size.
func FuzzFindFirst(f *testing.F) {
	f.Add([]byte{0, 0, 0x05, 0x0c, 0xff, 0x03})
	f.Add([]byte{1, 1, 0x00, 0x20, 0x00, 0x04, 0x01, 0x04})
	f.Add([]byte{0, 2, 0x03, 0x10, 0x00, 0x00})
	f.Add([]byte{1, 3, 0xe8, 0x03})
	f.Add([]byte{0, 4, 0xff, 0xff, 0x00, 0x08, 0xfe, 0xff, 0x01, 0x80})
	pools := []*native.Pool{native.New(2, native.StrategyStealing), native.New(3, native.StrategyStealing)}
	f.Cleanup(func() {
		for _, pl := range pools {
			pl.Close()
		}
	})
	grains := []exec.Grain{exec.Auto, exec.Static, exec.Guided, exec.Fine, {ChunksPerWorker: 7}, {ChunksPerWorker: 3, MinChunk: 5, MaxChunk: 40}}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		p := Par(pools[int(data[0])%len(pools)]).WithGrain(grains[int(data[1])%len(grains)])
		n := 1 + int(binary.LittleEndian.Uint16(data[2:4]))
		var marks []int
		for rest := data[4:]; len(rest) >= 2; rest = rest[2:] {
			marks = append(marks, int(binary.LittleEndian.Uint16(rest))%n)
		}
		checkFindFamily(t, p, n, marks)
	})
}
