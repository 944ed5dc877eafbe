package sim

import "testing"

// TestPairQueuesMatchMap drives PairQueues and a map of Fifos with random
// claims, pushes, pops and flag flips over a few endpoints, and requires
// the same contents, flags and claimed set after every operation. Each
// round ends in Reset and the next claims the pairs in a different order,
// so every queue is reused by a different pair, with no new arena page
// while the claims stay within the earlier peak. A queue pointer must stay
// valid while other pairs claim.
func TestPairQueuesMatchMap(t *testing.T) {
	const n = 6
	rng := NewRand(20081016)
	p := NewPairQueues[int](n)
	type pair struct{ src, dst int }
	var pairs []pair
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			pairs = append(pairs, pair{src, dst})
		}
	}
	peakPages := 0
	for round := 0; round < 6; round++ {
		// A different claim order each round: a fresh shuffle of the pairs,
		// of which a round uses a prefix.
		for i := len(pairs) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			pairs[i], pairs[j] = pairs[j], pairs[i]
		}
		use := pairs[:pairPage+rng.Intn(len(pairs)-pairPage)]
		ref := map[pair]*Fifo[int]{}
		flags := map[pair]bool{}
		held := map[pair]*PairQueue[int]{} // pointers from each pair's claim
		next := 0
		for op := 0; op < 3000; op++ {
			k := use[rng.Intn(len(use))]
			switch rng.Intn(4) {
			case 0, 1:
				q := p.Claim(k.src, k.dst)
				if _, ok := ref[k]; !ok {
					ref[k] = &Fifo[int]{}
					held[k] = q
				}
				q.Push(next)
				ref[k].Push(next)
				next++
			case 2:
				q, want := p.Get(k.src, k.dst), ref[k]
				if (q == nil) != (want == nil) {
					t.Fatalf("round %d op %d: Get(%v) = %p, claimed %v", round, op, k, q, want != nil)
				}
				if q != nil && !q.Empty() {
					if got, w := q.Pop(), want.Pop(); got != w {
						t.Fatalf("round %d op %d: %v popped %d, want %d", round, op, k, got, w)
					}
				}
			case 3:
				if q := p.Get(k.src, k.dst); q != nil {
					q.Flag = !q.Flag
					flags[k] = !flags[k]
				}
			}
			if p.used != len(ref) {
				t.Fatalf("round %d op %d: %d pairs claimed, want %d", round, op, p.used, len(ref))
			}
			for k, want := range ref {
				q := p.Get(k.src, k.dst)
				if q != held[k] {
					t.Fatalf("round %d op %d: %v's queue moved", round, op, k)
				}
				if q.Len() != want.Len() || q.Flag != flags[k] || (!q.Empty() && q.Front() != want.Front()) {
					t.Fatalf("round %d op %d: %v holds %d (flag %v), want %d (flag %v)",
						round, op, k, q.Len(), q.Flag, want.Len(), flags[k])
				}
			}
		}
		if round > 0 && len(ref) <= peakPages*pairPage && len(p.pages) != peakPages {
			t.Fatalf("round %d: %d pairs grew the arena from %d to %d pages", round, len(ref), peakPages, len(p.pages))
		}
		peakPages = len(p.pages)
		p.Reset()
		if p.used != 0 {
			t.Fatalf("round %d: Reset left %d pairs claimed", round, p.used)
		}
		for _, k := range pairs {
			if p.Get(k.src, k.dst) != nil {
				t.Fatalf("round %d: Reset left %v claimed", round, k)
			}
		}
		for i := 0; i < len(p.pages)*pairPage; i++ {
			if q := p.at(i); !q.Empty() || q.Flag {
				t.Fatalf("round %d: Reset left arena queue %d holding %d (flag %v)", round, i, q.Len(), q.Flag)
			}
		}
	}
}
