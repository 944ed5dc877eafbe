package bus

import (
	"testing"

	"corona/internal/noc"
	"corona/internal/sim"
)

type rx struct {
	cluster int
	id      uint64
	at      sim.Time
}

func harness(t *testing.T, cfg Config) (*sim.Kernel, *Bus, *[]rx) {
	t.Helper()
	k := sim.NewKernel()
	b := New(k, cfg)
	var got []rx
	for c := 0; c < cfg.Clusters; c++ {
		c := c
		b.SetDeliver(c, func(m *noc.Message) {
			got = append(got, rx{cluster: c, id: m.ID, at: k.Now()})
		})
	}
	return k, b, &got
}

func inv(id uint64, src int) *noc.Message {
	return &noc.Message{ID: id, Src: src, Dst: -1, Size: 16, Kind: noc.KindInvalidate}
}

func TestBroadcastReachesAllClusters(t *testing.T) {
	k, b, got := harness(t, DefaultConfig())
	if !b.Broadcast(inv(1, 7)) {
		t.Fatal("broadcast refused")
	}
	k.Run()
	if len(*got) != 64 {
		t.Fatalf("delivered to %d clusters, want 64", len(*got))
	}
	seen := map[int]bool{}
	for _, r := range *got {
		if seen[r.cluster] {
			t.Fatalf("cluster %d snooped twice", r.cluster)
		}
		seen[r.cluster] = true
	}
}

func TestSecondPassOrdering(t *testing.T) {
	// Clusters snoop in increasing cluster order on the second pass, and
	// nobody snoops before the light finishes the first pass.
	k, b, got := harness(t, DefaultConfig())
	b.Broadcast(inv(1, 32))
	k.Run()
	var prev sim.Time
	for i, r := range *got {
		if r.at < prev {
			t.Fatalf("snoop %d at %d before previous %d (second-pass order broken)", i, r.at, prev)
		}
		prev = r.at
	}
	first := (*got)[0]
	if first.cluster != 0 {
		t.Errorf("first snoop at cluster %d, want 0 (second pass starts at coil origin)", first.cluster)
	}
	// First-pass travel from src=32 to coil end is 32 positions = 4 cycles,
	// plus 1 cycle modulation.
	if first.at < 5 {
		t.Errorf("first snoop at %d, want >= 5 (first-pass transit)", first.at)
	}
}

func TestSenderSnoopsItself(t *testing.T) {
	k, b, got := harness(t, DefaultConfig())
	b.Broadcast(inv(9, 5))
	k.Run()
	found := false
	for _, r := range *got {
		if r.cluster == 5 {
			found = true
		}
	}
	if !found {
		t.Error("sender did not snoop its own broadcast")
	}
}

func TestBusSerializesSenders(t *testing.T) {
	// Two clusters broadcasting concurrently share one token: modulation
	// windows must not overlap.
	k, b, got := harness(t, DefaultConfig())
	b.Broadcast(inv(1, 3))
	b.Broadcast(inv(2, 40))
	k.Run()
	if len(*got) != 128 {
		t.Fatalf("delivered %d, want 128", len(*got))
	}
	if b.Broadcasts != 2 {
		t.Fatalf("Broadcasts = %d, want 2", b.Broadcasts)
	}
	// With snoops interleaved, per-message receive sets must still be complete.
	count := map[uint64]int{}
	for _, r := range *got {
		count[r.id]++
	}
	if count[1] != 64 || count[2] != 64 {
		t.Fatalf("per-message snoop counts = %v, want 64 each", count)
	}
}

func TestInjectQueueBackPressure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.InjectQueue = 2
	k, b, _ := harness(t, cfg)
	if !b.Broadcast(inv(1, 0)) || !b.Broadcast(inv(2, 0)) {
		t.Fatal("refused below capacity")
	}
	if b.Broadcast(inv(3, 0)) {
		t.Fatal("accepted beyond capacity")
	}
	k.Run()
	if b.Broadcasts != 2 {
		t.Fatalf("Broadcasts = %d, want 2", b.Broadcasts)
	}
	if !b.Broadcast(inv(4, 0)) {
		t.Fatal("still refusing after drain")
	}
}

func TestQueuedBroadcastsFromOneSender(t *testing.T) {
	k, b, got := harness(t, DefaultConfig())
	for i := 0; i < 5; i++ {
		if !b.Broadcast(inv(uint64(i+1), 11)) {
			t.Fatalf("broadcast %d refused", i)
		}
	}
	k.Run()
	if len(*got) != 5*64 {
		t.Fatalf("delivered %d, want %d", len(*got), 5*64)
	}
	if b.Broadcasts != 5 {
		t.Fatalf("Broadcasts = %d, want 5", b.Broadcasts)
	}
}

func TestInvalidBroadcastPanics(t *testing.T) {
	_, b, _ := harness(t, DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Error("invalid source did not panic")
		}
	}()
	b.Broadcast(inv(1, 99))
}
