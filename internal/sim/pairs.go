package sim

import "fmt"

// PairQueue is the FIFO of one (source, destination) pair of a PairQueues,
// plus one bit of the owner's per-pair state: a hub marks a pending
// injection retry with it, a crossbar a head message in flight. Reset
// clears both.
type PairQueue[T any] struct {
	Fifo[T]
	Flag     bool
	src, dst uint16
}

// pairPageBits sizes the arena's pages: 16 queues each, one allocation per
// 16 pairs a machine ever has in use at once.
const (
	pairPageBits = 4
	pairPage     = 1 << pairPageBits
)

// PairQueues holds FIFOs keyed by (source, destination) pair among n
// endpoints (at most 1<<16), sized by use rather than by the n×n worst
// case. A pair claims a queue from a recycled arena on its first push and
// keeps it until Reset; an n×n index of queue pointers, made on the first
// claim, finds a pair's queue in as many dependent loads as a dense n×n
// array of queues would. Reset touches only the pairs claimed since the
// last Reset, and the arena keeps every queue it grew — with its buffer —
// for the next claims, so a reused owner stops allocating once it has
// claimed its peak number of pairs. The arena is paged, so a queue pointer
// stays valid while other pairs claim: an owner may hold one across a call
// that re-enters it. A PairQueues belongs to one component on one kernel
// goroutine; it is not synchronized.
type PairQueues[T any] struct {
	n     int
	index []*PairQueue[T] // [src*n+dst]: the pair's queue, nil when unclaimed
	pages []*[pairPage]PairQueue[T]
	used  int // arena positions [0, used) are claimed
}

// NewPairQueues returns an empty set of queues among n endpoints.
func NewPairQueues[T any](n int) PairQueues[T] {
	if n > 1<<16 {
		panic(fmt.Sprintf("sim: %d endpoints exceeds the %d a pair queue can key", n, 1<<16))
	}
	return PairQueues[T]{n: n}
}

// Get returns pair (src, dst)'s queue, or nil when the pair has claimed
// none since the last Reset (an unclaimed pair's queue is empty).
func (p *PairQueues[T]) Get(src, dst int) *PairQueue[T] {
	if i := uint(src*p.n + dst); i < uint(len(p.index)) {
		return p.index[i]
	}
	return nil
}

// Claim returns pair (src, dst)'s queue, claiming one for it when it has
// none.
func (p *PairQueues[T]) Claim(src, dst int) *PairQueue[T] {
	if q := p.Get(src, dst); q != nil {
		return q
	}
	return p.claim(src, dst)
}

// claim gives unclaimed pair (src, dst) the next queue of the arena.
func (p *PairQueues[T]) claim(src, dst int) *PairQueue[T] {
	if p.index == nil {
		p.index = make([]*PairQueue[T], p.n*p.n)
	}
	if p.used == len(p.pages)<<pairPageBits {
		p.pages = append(p.pages, new([pairPage]PairQueue[T]))
	}
	q := p.at(p.used)
	p.used++
	p.index[src*p.n+dst] = q
	q.src, q.dst = uint16(src), uint16(dst)
	return q
}

func (p *PairQueues[T]) at(i int) *PairQueue[T] {
	return &p.pages[i>>pairPageBits][i&(pairPage-1)]
}

// Reset empties every claimed queue and releases it to the arena, keeping
// the arena, its queues' buffers and the index for reuse.
func (p *PairQueues[T]) Reset() {
	for i := 0; i < p.used; i++ {
		q := p.at(i)
		q.Fifo.Reset()
		q.Flag = false
		p.index[int(q.src)*p.n+int(q.dst)] = nil
	}
	p.used = 0
}
