package bus

import (
	"testing"

	"corona/internal/noc"
	"corona/internal/sim"
)

// funcEvent adapts a func() to sim.Handler for tests that schedule closures.
type funcEvent func()

func (f funcEvent) OnEvent(sim.Time, uint64) { f() }

func TestBarrierReleasesAllAfterLastArrival(t *testing.T) {
	k := sim.NewKernel()
	b := New(k, DefaultConfig())
	br := NewBarrier(b, 64)

	released := make([]sim.Time, 64)
	releasedCount := 0
	var lastArrival sim.Time
	for c := 0; c < 64; c++ {
		c := c
		at := sim.Time(c * 3) // staggered arrivals
		if at > lastArrival {
			lastArrival = at
		}
		k.AtEvent(at, funcEvent(func() {
			br.Arrive(c, func() {
				released[c] = k.Now()
				releasedCount++
			})
		}), 0)
	}
	k.Run()
	if releasedCount != 64 {
		t.Fatalf("released %d clusters, want 64", releasedCount)
	}
	for c, at := range released {
		if at < lastArrival {
			t.Fatalf("cluster %d released at %d, before the last arrival at %d", c, at, lastArrival)
		}
	}
	if br.Releases != 1 {
		t.Fatalf("Releases = %d, want 1", br.Releases)
	}
}

func TestBarrierLatencyIsBusBound(t *testing.T) {
	// All clusters arrive simultaneously: release requires 64 serialized
	// one-cycle broadcasts plus propagation, i.e. on the order of 100-300
	// cycles — far cheaper than 64 crossbar round trips to a coordinator
	// under contention.
	k := sim.NewKernel()
	b := New(k, DefaultConfig())
	br := NewBarrier(b, 64)
	var last sim.Time
	n := 0
	for c := 0; c < 64; c++ {
		br.Arrive(c, func() { n++; last = k.Now() })
	}
	k.Run()
	if n != 64 {
		t.Fatalf("released %d, want 64", n)
	}
	if last > 400 {
		t.Errorf("barrier completed at %d cycles, want <= 400 (bus-serialized)", last)
	}
	if last < 64 {
		t.Errorf("barrier completed at %d cycles; 64 broadcasts cannot fit", last)
	}
}

// TestBarrierBroadcastRetry fills cluster 3's one-deep broadcast FIFO
// before it arrives, so its arrival pulse is refused and retried every 2
// cycles until the FIFO drains. The release cycles are pinned exactly;
// without the retry the barrier never releases.
func TestBarrierBroadcastRetry(t *testing.T) {
	k := sim.NewKernel()
	cfg := DefaultConfig()
	cfg.InjectQueue = 1
	b := New(k, cfg)
	br := NewBarrier(b, 64)
	if !b.Broadcast(&noc.Message{ID: 1, Src: 3, Dst: -1, Size: 16, Kind: noc.KindInvalidate}) {
		t.Fatal("pre-filling broadcast refused")
	}
	released := make([]sim.Time, 64)
	for c := 0; c < 64; c++ {
		c := c
		br.Arrive(c, func() { released[c] = k.Now() })
	}
	if br.pending[3] == nil {
		t.Fatal("cluster 3's arrival pulse was not refused")
	}
	k.Run()
	for c, at := range released {
		// Clusters snoop the last pulse in coil order, 8 per cycle.
		if want := sim.Time(72 + c/8); at != want {
			t.Errorf("cluster %d released at %d, want %d", c, at, want)
		}
	}
	if br.Releases != 1 {
		t.Fatalf("Releases = %d, want 1", br.Releases)
	}
}

func TestBarrierReusableAcrossGenerations(t *testing.T) {
	k := sim.NewKernel()
	b := New(k, DefaultConfig())
	br := NewBarrier(b, 64)
	for gen := 0; gen < 3; gen++ {
		n := 0
		for c := 0; c < 64; c++ {
			br.Arrive(c, func() { n++ })
		}
		k.Run()
		if n != 64 {
			t.Fatalf("generation %d released %d, want 64", gen, n)
		}
	}
	if br.Releases != 3 {
		t.Fatalf("Releases = %d, want 3", br.Releases)
	}
}

func TestBarrierDoubleArrivalPanics(t *testing.T) {
	k := sim.NewKernel()
	b := New(k, DefaultConfig())
	br := NewBarrier(b, 64)
	br.Arrive(5, nil)
	defer func() {
		if recover() == nil {
			t.Error("double arrival did not panic")
		}
	}()
	br.Arrive(5, nil)
	_ = k
}

// TestBarrierArrivalWhilePulsePendingPanics covers a barrier smaller than
// the bus: cluster 5 is released by cluster 1's pulse while its own pulse
// still waits behind a full FIFO, and arriving again then is a double
// arrival, not a second pending pulse.
func TestBarrierArrivalWhilePulsePendingPanics(t *testing.T) {
	k := sim.NewKernel()
	cfg := DefaultConfig()
	cfg.InjectQueue = 1
	b := New(k, cfg)
	br := NewBarrier(b, 1)
	br.Arrive(1, nil)
	// Cluster 3 holds the bus token for 100 cycles after cluster 1's pulse,
	// so cluster 5's pre-filled FIFO stays full.
	b.Broadcast(&noc.Message{ID: 1, Src: 3, Dst: -1, Size: 1600, Kind: noc.KindInvalidate})
	b.Broadcast(&noc.Message{ID: 2, Src: 5, Dst: -1, Size: 16, Kind: noc.KindInvalidate})
	br.Arrive(5, nil)
	// Run every event through cycle 50, then stop.
	k.AtEvent(51, funcEvent(k.Stop), 0)
	k.Run()
	if br.waiting[5] || br.pending[5] == nil {
		t.Fatalf("after cycle 50 cluster 5 waiting=%v, pulse pending=%v; want released with its pulse pending",
			br.waiting[5], br.pending[5] != nil)
	}
	defer func() {
		if recover() == nil {
			t.Error("arrival with a pulse still pending did not panic")
		}
	}()
	br.Arrive(5, nil)
}

func TestBarrierSizeValidation(t *testing.T) {
	k := sim.NewKernel()
	b := New(k, DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Error("oversized barrier did not panic")
		}
	}()
	NewBarrier(b, 65)
}
