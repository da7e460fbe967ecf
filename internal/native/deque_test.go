package native

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestDequeStealFIFO(t *testing.T) {
	var d wsDeque
	d.init()
	for i := uint64(1); i <= 5; i++ {
		d.push(i)
	}
	for want := uint64(1); want <= 5; want++ {
		w, ok := d.steal()
		if !ok || w != want {
			t.Fatalf("steal = %d,%v want %d", w, ok, want)
		}
	}
	if _, ok := d.steal(); ok {
		t.Fatal("steal from empty deque succeeded")
	}
}

func TestDequeGrowPreservesWindow(t *testing.T) {
	var d wsDeque
	d.init()
	// Interleave pushes and steals so the live window wraps the buffer,
	// then force several growths.
	next := uint64(1)
	for i := 0; i < dqInitialSize/2; i++ {
		d.push(next)
		next++
	}
	for i := 0; i < dqInitialSize/4; i++ {
		if _, ok := d.steal(); !ok {
			t.Fatal("warmup steal failed")
		}
	}
	for i := 0; i < 4*dqInitialSize; i++ {
		d.push(next)
		next++
	}
	want := uint64(dqInitialSize/4 + 1)
	for {
		w, ok := d.steal()
		if !ok {
			break
		}
		if w != want {
			t.Fatalf("steal after grow = %d, want %d", w, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("drained to %d, want %d", want, next)
	}
}

// exactlyOnce runs producers that together hand out words 1..words through
// put, and consumers that take through take until the producers are done and
// take comes back empty, then checks every word was taken exactly once. Run
// under -race it also checks the queue's synchronization.
func exactlyOnce(t *testing.T, words, producers, consumers int, put func(w uint64), take func() (uint64, bool)) {
	t.Helper()
	seen := make([]atomic.Int32, words+1)
	var next atomic.Uint64
	var prod, cons sync.WaitGroup
	done := make(chan struct{})
	for range producers {
		prod.Add(1)
		go func() {
			defer prod.Done()
			for {
				w := next.Add(1)
				if w > uint64(words) {
					return
				}
				put(w)
			}
		}()
	}
	for range consumers {
		cons.Add(1)
		go func() {
			defer cons.Done()
			for {
				if w, ok := take(); ok {
					seen[w].Add(1)
					continue
				}
				select {
				case <-done:
					// Final drain after the producers stop.
					for {
						w, ok := take()
						if !ok {
							return
						}
						seen[w].Add(1)
					}
				default:
				}
			}
		}()
	}
	prod.Wait()
	close(done)
	cons.Wait()
	for i := 1; i <= words; i++ {
		if c := seen[i].Load(); c != 1 {
			t.Fatalf("word %d taken %d times", i, c)
		}
	}
}

// TestDequeSerializedPushersVsThieves is the injector's use: pushers
// serialized by a mutex race several thieves.
func TestDequeSerializedPushersVsThieves(t *testing.T) {
	var d wsDeque
	d.init()
	var mu sync.Mutex
	exactlyOnce(t, 100000, 3, 4, func(w uint64) {
		mu.Lock()
		d.push(w)
		mu.Unlock()
	}, d.steal)
}

// TestQueueOwnerNewestOthersOldest pins the worker queue's order: the owner
// pops the most recently put word, thieves steal the oldest.
func TestQueueOwnerNewestOthersOldest(t *testing.T) {
	var q queue
	for i := uint64(1); i <= 6; i++ {
		q.put(i)
	}
	for _, want := range []struct {
		pop  bool
		word uint64
	}{{true, 6}, {false, 1}, {true, 5}, {false, 2}, {false, 3}, {true, 4}} {
		take, name := q.steal, "steal"
		if want.pop {
			take, name = q.pop, "pop"
		}
		if w, ok := take(); !ok || w != want.word {
			t.Fatalf("%s = %d,%v want %d", name, w, ok, want.word)
		}
	}
	if _, ok := q.pop(); ok {
		t.Fatal("pop from empty queue succeeded")
	}
	if _, ok := q.steal(); ok {
		t.Fatal("steal from empty queue succeeded")
	}
	// A queue whose front was stolen reuses that space: the order holds
	// across the compaction.
	for i := uint64(1); i <= 100; i++ {
		q.put(i)
		if i%2 == 0 {
			if w, _ := q.steal(); w != i/2 {
				t.Fatalf("steal after %d puts = %d, want %d", i, w, i/2)
			}
		}
	}
	if w, _ := q.pop(); w != 100 {
		t.Fatalf("pop after compaction = %d, want 100", w)
	}
}

// TestQueueConcurrentPutTake races putters against the owner's pops and
// several thieves' steals: every word is taken exactly once.
func TestQueueConcurrentPutTake(t *testing.T) {
	var q queue
	var pops atomic.Int64
	take := func() (uint64, bool) {
		// One take in four pops, the owner's end.
		if pops.Add(1)%4 == 0 {
			return q.pop()
		}
		return q.steal()
	}
	exactlyOnce(t, 20000, 3, 4, q.put, take)
}
