// Package tune implements the adaptive grain auto-tuner: an online
// feedback controller that owns chunk-size selection for repeated parallel
// loops. It closes the loop the ROADMAP describes — the scheduler's split
// LocalSteals/RemoteSteals counters and the per-loop trace distributions
// flow back into exec.Grain selection, so a loop that runs more than once
// converges on a grain automatically instead of trusting a static policy.
//
// The controller is a bounded hill climb on a power-of-two chunk-size
// ladder, with an AIMD-flavored rule for picking the climb direction from
// scheduler telemetry:
//
//   - remote-steal-dominated loops coarsen: every remote steal drags
//     first-touched data across the NUMA fabric, so remote steals are
//     weighted remoteWeight× heavier than local ones, and when they
//     dominate the steal mix the tuner grows the chunk size;
//   - purely-local stealing is tolerated: local deque steals are the
//     mechanism of load balance, not a pathology, so they never force a
//     direction on their own;
//   - idle-gap mass above threshold refines: when a trace window shows
//     workers idle for more than idleFracRefine of the measured span, the
//     chunks are too coarse to balance and the tuner shrinks them.
//
// Absent a forcing signal the climb is throughput-driven: keep moving
// while the measured items/s improves by more than the noise floor,
// reverse once on a regression, and lock onto the best-seen chunk when a
// reversal re-visits explored ground. The noise floor is the relative
// standard deviation of the per-invocation seconds observed at the current
// (site, n, workers, chunk), so noisy sites need a larger improvement to
// keep climbing.
//
// State is keyed by (loop site, n, workers): the same loop at a different
// size or thread count is a different optimization problem. Tuned state is
// exportable as a JSON cache (see cache.go) for warm-starting later runs.
package tune

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"pstlbench/internal/exec"
)

// Key identifies one tuned loop: a loop site (typically the algorithm or
// benchmark name) at one problem size on one worker count.
type Key struct {
	Site    string
	N       int
	Workers int
}

func (k Key) String() string {
	return fmt.Sprintf("%s/n=%d/w=%d", k.Site, k.N, k.Workers)
}

// The controller's constants.
const (
	// remoteWeight is the weight of a remote (cross-NUMA) steal relative to
	// a local one in the steal-pressure signal: the Table 6 knee shows
	// remote steals cost a small multiple of local ones.
	remoteWeight = 4
	// coarsenStealsPerChunk is the weighted-steal-per-chunk pressure above
	// which a remote-dominated steal mix forces coarsening.
	coarsenStealsPerChunk = 0.25
	// idleFracRefine is the idle-gap mass (fraction of the trace window the
	// workers spent idle) above which the tuner refines.
	idleFracRefine = 0.25
	// minGain is the minimum relative throughput improvement that counts as
	// progress; below it the climb is on a plateau and locks. The effective
	// threshold is max(minGain, relative stddev of the current operating
	// point's per-invocation seconds).
	minGain = 0.02
	// driftTolerance is the relative throughput loss after lock that, seen
	// twice in a row, reopens the climb (the workload or machine state
	// drifted).
	driftTolerance = 0.3
	// minChunk is the smallest chunk size the tuner proposes.
	minChunk = 1
)

// Tuner is the adaptive grain controller. It is safe for concurrent use;
// all methods take an internal lock.
type Tuner struct {
	mu sync.Mutex
	st map[Key]*state
}

// state is the per-key controller state.
type state struct {
	cur       int // chunk size of the current operating point
	dir       int // +1 coarsen (double), -1 refine (halve)
	best      int
	bestTp    float64
	prevTp    float64
	trials    int
	reversals int
	locked    bool
	driftBad  int
	// tried maps chunk size -> best throughput observed there, so a climb
	// that turns around recognizes explored ground and locks instead of
	// oscillating.
	tried map[int]float64
	// timing maps chunk size -> the seconds of every observation there,
	// over the tuner's lifetime; its spread is the stop condition's noise
	// floor.
	timing map[int]moments
	// pendingIdleFrac carries the idle-gap mass of the most recent trace
	// summary (ObserveSummary) into the observations that follow it.
	pendingIdleFrac float64
	hasPending      bool
}

// moments holds the count, sum and sum of squares of a set of seconds.
type moments struct {
	n, sum, sumSq float64
}

// relStdDev returns the population standard deviation relative to the
// mean, or 0 below two samples.
func (m moments) relStdDev() float64 {
	if m.n < 2 {
		return 0
	}
	mean := m.sum / m.n
	variance := max(0, m.sumSq/m.n-mean*mean)
	return math.Sqrt(variance) / mean
}

// New returns a Tuner with no tuned state.
func New() *Tuner {
	return &Tuner{st: make(map[Key]*state)}
}

// maxChunkFor returns the coarsest useful chunk size: one chunk per worker.
func maxChunkFor(k Key) int {
	w := k.Workers
	if w < 1 {
		w = 1
	}
	c := (k.N + w - 1) / w
	if c < 1 {
		c = 1
	}
	return c
}

// autoChunkFor returns the chunk size equivalent to exec.Auto — the
// starting point of every climb.
func autoChunkFor(k Key) int {
	chunks := exec.Auto.Chunks(k.N, k.Workers).Len()
	if chunks < 1 {
		return 1
	}
	c := (k.N + chunks - 1) / chunks
	if c < 1 {
		c = 1
	}
	return c
}

// grainFor converts a chunk size into the equal-chunk grain the tuner
// proposes: MinChunk == MaxChunk == c yields exactly ceil(n/c) balanced
// chunks tiling [0, n).
func grainFor(c int) exec.Grain {
	return exec.Grain{MinChunk: c, MaxChunk: c}
}

// lookup returns the state for k, creating it on first use at the seeded
// operating point: a cross-size interpolation over converged sibling keys
// when any exist, exec.Auto otherwise. Callers hold t.mu.
func (t *Tuner) lookup(k Key) *state {
	s := t.st[k]
	if s == nil {
		c := t.seedChunk(k)
		s = &state{
			cur:    c,
			dir:    +1,
			best:   c,
			tried:  make(map[int]float64),
			timing: make(map[int]moments),
		}
		t.st[k] = s
	}
	return s
}

// seedChunk picks the starting chunk for an unseen key. When sibling keys —
// same Site and Workers at other sizes — have already converged, their
// operating points form a ladder in (log2 n, log2 chunk) space; the seed
// interpolates that ladder linearly at the new size (extrapolating the end
// segments, or assuming chunk ∝ n when only one sibling exists) and rounds
// to the nearest power of two. The seed only positions the hill-climb's
// first probe — the climb still runs and can walk away from a bad seed —
// but a converged run at 2^20 makes the first proposal at 2^21 land near
// the optimum instead of back at exec.Auto. Callers hold t.mu.
func (t *Tuner) seedChunk(k Key) int {
	type point struct{ ln, lc float64 }
	var pts []point
	for sk, ss := range t.st {
		if sk.Site != k.Site || sk.Workers != k.Workers || sk.N == k.N {
			continue
		}
		if !ss.locked || ss.best < 1 || sk.N <= 0 {
			continue
		}
		pts = append(pts, point{math.Log2(float64(sk.N)), math.Log2(float64(ss.best))})
	}
	if len(pts) == 0 {
		return t.clamp(k, autoChunkFor(k))
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].ln < pts[j].ln })
	target := math.Log2(float64(k.N))
	var lc float64
	switch {
	case len(pts) == 1:
		// One sibling: assume the chunk scales with n (constant chunk
		// count), the behavior of a converged bandwidth-bound loop.
		lc = pts[0].lc + (target - pts[0].ln)
	case target <= pts[0].ln:
		lc = extrapolate(pts[0], pts[1], target)
	case target >= pts[len(pts)-1].ln:
		lc = extrapolate(pts[len(pts)-2], pts[len(pts)-1], target)
	default:
		for i := 1; i < len(pts); i++ {
			if target <= pts[i].ln {
				lc = extrapolate(pts[i-1], pts[i], target)
				break
			}
		}
	}
	e := int(math.Round(lc))
	if e < 0 {
		e = 0
	}
	if e > 30 {
		e = 30
	}
	return t.clamp(k, 1<<e)
}

// extrapolate evaluates the line through (a.ln, a.lc) and (b.ln, b.lc) at x.
func extrapolate(a, b struct{ ln, lc float64 }, x float64) float64 {
	if b.ln == a.ln {
		return a.lc
	}
	slope := (b.lc - a.lc) / (b.ln - a.ln)
	return a.lc + slope*(x-a.ln)
}

func (t *Tuner) clamp(k Key, c int) int {
	if c < minChunk {
		c = minChunk
	}
	if max := maxChunkFor(k); c > max {
		c = max
	}
	return c
}

// Propose returns the grain to use for the next invocation of the loop
// identified by k. Before any observation it is equivalent to exec.Auto;
// afterwards it is the controller's current operating point.
func (t *Tuner) Propose(k Key) exec.Grain {
	if k.N <= 0 {
		return exec.Auto
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return grainFor(t.lookup(k).cur)
}

// Converged reports whether the controller has locked onto a grain for k.
func (t *Tuner) Converged(k Key) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.st[k]
	return s != nil && s.locked
}

// Best returns the best-throughput chunk size observed for k, with its
// items/s, or ok=false if k has never been observed.
func (t *Tuner) Best(k Key) (chunk int, itemsPerSec float64, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.st[k]
	if s == nil || s.trials == 0 {
		return 0, 0, false
	}
	return s.best, s.bestTp, true
}

// Observe ingests the measurement of one invocation that ran with the
// grain last proposed for k, and advances the controller. Observations
// with a non-positive duration are ignored.
func (t *Tuner) Observe(k Key, o Observation) {
	if k.N <= 0 || o.Seconds <= 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.lookup(k)
	tp := float64(k.N) / o.Seconds
	s.trials++
	m := s.timing[s.cur]
	m.n++
	m.sum += o.Seconds
	m.sumSq += o.Seconds * o.Seconds
	s.timing[s.cur] = m
	if old, seen := s.tried[s.cur]; !seen || tp > old {
		s.tried[s.cur] = tp
	}
	if tp > s.bestTp {
		s.bestTp, s.best = tp, s.cur
	}

	if s.locked {
		// Drift watch: two consecutive invocations well below the locked
		// throughput mean the landscape moved — restart the climb from
		// the current point.
		if tp < s.bestTp*(1-driftTolerance) {
			s.driftBad++
		} else {
			s.driftBad = 0
		}
		if s.driftBad >= 2 {
			s.locked = false
			s.driftBad = 0
			s.trials = 1
			s.reversals = 0
			s.dir = +1
			s.tried = map[int]float64{s.cur: tp}
			s.best, s.bestTp = s.cur, tp
			s.prevTp = tp
		}
		return
	}

	forced := t.direction(k, s, o)

	if s.trials == 1 {
		// First sample: nothing to compare against. Take the forced
		// direction if any, else probe coarser (cut dispatch overhead).
		if forced != 0 {
			s.dir = forced
		}
		s.prevTp = tp
		s.advance(t, k)
		return
	}

	// Noise floor: the relative stddev of this operating point's timings,
	// but never below minGain.
	noise := max(minGain, m.relStdDev())

	improved := tp >= s.prevTp*(1+noise)
	worse := tp < s.prevTp*(1-noise)
	switch {
	case forced != 0:
		s.dir = forced
	case worse:
		s.reversals++
		s.dir = -s.dir
	case !improved:
		// Plateau: within the noise band of the previous point. Settle.
		s.lockAtBest()
		return
	}
	s.prevTp = tp
	if s.reversals >= 2 {
		s.lockAtBest()
		return
	}
	s.advance(t, k)
}

// direction returns the forced climb direction from the scheduler
// telemetry of o: +1 when remote steals dominate and the weighted steal
// pressure per chunk is high, -1 when the idle-gap mass of the last trace
// summary (ObserveSummary) exceeds the refine threshold, 0 when the
// signals are quiet and throughput should decide.
func (t *Tuner) direction(k Key, s *state, o Observation) int {
	chunks := float64((k.N + s.cur - 1) / s.cur)
	if chunks < 1 {
		chunks = 1
	}
	weighted := (o.LocalSteals + remoteWeight*o.RemoteSteals) / chunks
	if o.RemoteSteals > o.LocalSteals && weighted > coarsenStealsPerChunk {
		return +1
	}
	if s.hasPending && s.pendingIdleFrac > idleFracRefine {
		return -1
	}
	return 0
}

// advance moves the operating point one ladder step in s.dir, bouncing off
// the [minChunk, ceil(n/workers)] bounds and locking when the next step
// would only re-visit explored, not-better ground.
func (s *state) advance(t *Tuner, k Key) {
	for bounce := 0; bounce < 2; bounce++ {
		var next int
		if s.dir >= 0 {
			next = s.cur * 2
		} else {
			next = s.cur / 2
		}
		next = t.clamp(k, next)
		if next == s.cur {
			// Hit a bound: turn around.
			s.dir = -s.dir
			s.reversals++
			continue
		}
		if old, seen := s.tried[next]; seen && old <= s.bestTp {
			// The neighbor was already explored and is no better than the
			// best point — the climb is done.
			s.lockAtBest()
			return
		}
		s.cur = next
		return
	}
	// Both directions are bounded (degenerate ladder): settle.
	s.lockAtBest()
}

func (s *state) lockAtBest() {
	s.cur = s.best
	s.locked = true
	s.driftBad = 0
}

// Source binds a Tuner to one loop site, satisfying core.GrainSource: each
// Grain(n, workers) call proposes for Key{site, n, workers}. Plug it into a
// core.Policy with WithGrainSource and the tuner owns grain selection for
// every parallel loop the policy runs, without touching algorithm code.
type Source struct {
	T    *Tuner
	Site string
}

// Grain proposes the grain for a loop over n elements on workers workers.
func (s Source) Grain(n, workers int) exec.Grain {
	return s.T.Propose(Key{Site: s.Site, N: n, Workers: workers})
}

// Site returns a Source bound to the given loop site.
func (t *Tuner) Site(site string) Source { return Source{T: t, Site: site} }

// Keys returns every key with tuner state, sorted by String(), for
// deterministic reporting and export.
func (t *Tuner) Keys() []Key {
	t.mu.Lock()
	defer t.mu.Unlock()
	keys := make([]Key, 0, len(t.st))
	for k := range t.st {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	return keys
}
