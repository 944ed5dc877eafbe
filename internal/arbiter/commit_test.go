package arbiter

import (
	"slices"
	"testing"

	"corona/internal/sim"
)

// refRing is the token ring as it was before commit's division-free ETA:
// the same state machine, with a modulus and a division per waiter. It is
// the grant-order oracle for TokenRing.
type refRing struct {
	k        *sim.Kernel
	n, speed int
	chans    []tokenChannel
}

func newRefRing(k *sim.Kernel, n, nchan, speed int) *refRing {
	r := &refRing{k: k, n: n, speed: speed, chans: make([]tokenChannel, nchan)}
	for i := range r.chans {
		r.chans[i] = tokenChannel{holder: -1, freePos: i % n, lastReleaser: -1}
	}
	return r
}

func (r *refRing) RequestEvent(channel, cluster int, h GrantHandler) {
	c := &r.chans[channel]
	c.pending = append(c.pending, waiter{cluster: cluster, h: h})
	if c.holder < 0 {
		r.commit(channel)
	}
}

func (r *refRing) Release(channel, cluster int) {
	c := &r.chans[channel]
	c.holder, c.freePos, c.freeAt = -1, cluster, r.k.Now()
	c.lastReleaser, c.lastRelease = cluster, r.k.Now()
	c.gen++
	if len(c.pending) > 0 {
		r.commit(channel)
	}
}

func (r *refRing) commit(channel int) {
	c := &r.chans[channel]
	now := r.k.Now()
	pos := c.posAt(now, r.n, r.speed)
	best := -1
	var bestETA sim.Time
	for i, w := range c.pending {
		dist := (w.cluster - pos) % r.n
		if dist < 0 {
			dist += r.n
		}
		eta := now + sim.Time(dist/r.speed)
		if w.cluster == c.lastReleaser {
			min := c.lastRelease + sim.Time((r.n+r.speed-1)/r.speed)
			if eta < min {
				eta = min
			}
		}
		if best < 0 || eta < bestETA {
			best, bestETA = i, eta
		}
	}
	if best < 0 {
		return
	}
	c.gen++
	c.commitCluster = c.pending[best].cluster
	r.k.AtEvent(bestETA, (*refGrant)(r), uint64(channel)|(c.gen&genMask)<<genShift)
}

type refGrant refRing

func (g *refGrant) OnEvent(_ sim.Time, data uint64) {
	r := (*refRing)(g)
	c := &r.chans[data&(1<<genShift-1)]
	if c.gen&genMask != data>>genShift || c.holder >= 0 {
		return
	}
	c.holder = c.commitCluster
	i := slices.IndexFunc(c.pending, func(w waiter) bool { return w.cluster == c.commitCluster })
	w := c.pending[i]
	c.pending = slices.Delete(c.pending, i, i+1)
	w.h.Granted(int(data&(1<<genShift-1)), c.holder)
}

// ring is what ringAgent needs of a token ring.
type ring interface {
	RequestEvent(channel, cluster int, h GrantHandler)
	Release(channel, cluster int)
}

// grant is one logged grant.
type grant struct {
	at               sim.Time
	channel, cluster int
}

// ringAgent drives a ring with requests at random times and random hold
// times, re-requesting half of the released channels at once (the
// self-reacquire exclusion). Its decisions depend only on its seed and the
// grants it sees, so two agents with one seed drive two rings identically
// for as long as their grants agree.
type ringAgent struct {
	k      *sim.Kernel
	ring   ring
	rng    *sim.Rand
	active map[uint64]bool // requested or held, by channel<<16 | cluster
	log    []grant
}

type agentRequest ringAgent

func (e *agentRequest) OnEvent(_ sim.Time, key uint64) {
	a := (*ringAgent)(e)
	if !a.active[key] {
		a.active[key] = true
		a.ring.RequestEvent(int(key>>16), int(key&0xffff), a)
	}
}

type agentRelease ringAgent

func (e *agentRelease) OnEvent(_ sim.Time, key uint64) {
	a := (*ringAgent)(e)
	a.ring.Release(int(key>>16), int(key&0xffff))
	delete(a.active, key)
	if a.rng.Intn(2) == 0 {
		(*agentRequest)(a).OnEvent(0, key)
	}
}

func (a *ringAgent) Granted(channel, cluster int) {
	a.log = append(a.log, grant{a.k.Now(), channel, cluster})
	a.k.ScheduleEvent(sim.Time(a.rng.Intn(12)), (*agentRelease)(a), uint64(channel)<<16|uint64(cluster))
}

func runAgent(r ring, k *sim.Kernel, seed uint64, n, nchan int) []grant {
	a := &ringAgent{k: k, ring: r, rng: sim.NewRand(seed), active: map[uint64]bool{}}
	for i := 0; i < 400; i++ {
		key := uint64(a.rng.Intn(nchan))<<16 | uint64(a.rng.Intn(n))
		k.AtEvent(sim.Time(a.rng.Intn(600)), (*agentRequest)(a), key)
	}
	k.RunLimit(1_000_000)
	return a.log
}

// TestCommitMatchesModuloScan drives TokenRing and the modulus-and-division
// commit it replaced with identical random request and release sequences,
// over ring sizes, token speeds (including speeds that do not divide the
// ring, and one faster than a whole ring per cycle) and channel counts,
// and requires the same grants at the same times in the same order.
func TestCommitMatchesModuloScan(t *testing.T) {
	for _, g := range []struct{ n, nchan, speed int }{
		{64, 64, 8}, {64, 1, 8}, {64, 4, 3}, {13, 2, 5}, {7, 3, 1}, {5, 1, 64},
	} {
		for seed := uint64(1); seed <= 10; seed++ {
			k, kr := sim.NewKernel(), sim.NewKernel()
			got := runAgent(New(k, g.n, g.nchan, g.speed), k, seed, g.n, g.nchan)
			want := runAgent(newRefRing(kr, g.n, g.nchan, g.speed), kr, seed, g.n, g.nchan)
			if len(want) < 100 {
				t.Fatalf("n=%d speed=%d seed %d: only %d grants", g.n, g.speed, seed, len(want))
			}
			if !slices.Equal(got, want) {
				i := 0
				for i < len(got) && i < len(want) && got[i] == want[i] {
					i++
				}
				t.Fatalf("n=%d nchan=%d speed=%d seed %d: grants diverge at %d of %d/%d",
					g.n, g.nchan, g.speed, seed, i, len(got), len(want))
			}
		}
	}
}
