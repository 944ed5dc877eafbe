package noc_test

import (
	"testing"

	_ "corona/internal/mesh"
	"corona/internal/noc"
	"corona/internal/sim"
	_ "corona/internal/swmr"
	_ "corona/internal/xbar"
)

// TestInjectEpochContract holds every registered fabric to the
// InjectEpochs contract the hub's refusal memo relies on: the slice has
// one entry per cluster; after Send refuses a message from src, Send keeps
// refusing it while epochs[src] is unchanged; the first accept after a
// refusal follows an epoch change; the epoch never decreases; and Reset
// zeroes every epoch in the same backing array, which the hub keeps for
// the network's lifetime.
func TestInjectEpochContract(t *testing.T) {
	names := noc.Names()
	if len(names) < 4 {
		t.Fatalf("only %d fabrics registered: %v", len(names), names)
	}

	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			fab, ok := noc.Lookup(name)
			if !ok {
				t.Fatalf("fabric %q not registered", name)
			}
			k := sim.NewKernel()
			net, err := fab.Build(k, noc.FabricParams{Clusters: 64})
			if err != nil {
				t.Fatal(err)
			}
			for c := 0; c < net.Clusters(); c++ {
				net.SetDeliver(c, func(m *noc.Message) { net.Consume(c, m) })
			}
			epochs := net.InjectEpochs()
			if len(epochs) != net.Clusters() {
				t.Fatalf("InjectEpochs has %d entries, want Clusters() = %d", len(epochs), net.Clusters())
			}
			for c := 0; c < net.Clusters(); c++ {
				if e := epochs[c]; e != 0 {
					t.Fatalf("fresh network: epochs[%d] = %d, want 0", c, e)
				}
			}

			// Sources 0 and 9 send to a few destinations in both message
			// classes, so per-destination and per-class injection queues
			// all fill; each source keeps one refused head and retries it.
			var id uint64
			next := func(src int) *noc.Message {
				id++
				m := net.Acquire()
				m.ID, m.Src, m.Dst = id, src, (src+1+int(id%3))%net.Clusters()
				m.Kind, m.Size = noc.KindRequest, noc.RequestBytes
				if id%2 == 0 {
					m.Kind, m.Size = noc.KindResponse, noc.ResponseBytes
				}
				return m
			}
			type source struct {
				src     int
				head    *noc.Message // refused, awaiting retry
				refused uint64       // epochs[src] at the head's refusal
				last    uint64       // last epoch seen, for monotonicity
				accepts int          // accepts following a refusal
			}
			// fill sends fresh messages until one is refused.
			fill := func(s *source) {
				for i := 0; i < 1000; i++ {
					m := next(s.src)
					if !net.Send(m) {
						s.head, s.refused = m, epochs[s.src]
						return
					}
				}
				t.Fatalf("source %d: 1000 sends without back pressure", s.src)
			}
			sources := []*source{{src: 0}, {src: 9}}
			for _, s := range sources {
				fill(s)
				if net.Send(s.head) {
					t.Fatalf("source %d: immediate re-Send accepted with the epoch unchanged", s.src)
				}
			}

			for steps := 0; k.Step(); steps++ {
				if steps > 200000 {
					t.Fatal("network did not settle")
				}
				for _, s := range sources {
					if s.head == nil {
						continue
					}
					e := epochs[s.src]
					if e < s.last {
						t.Fatalf("source %d: epoch fell from %d to %d", s.src, s.last, e)
					}
					s.last = e
					if !net.Send(s.head) {
						s.refused = e
						continue
					}
					if e == s.refused {
						t.Fatalf("source %d: refused head accepted at t=%d with the epoch unchanged (%d)", s.src, k.Now(), e)
					}
					s.accepts++
					s.head = nil
					if s.accepts < 40 {
						fill(s)
					}
				}
			}
			for _, s := range sources {
				if s.accepts < 40 || epochs[s.src] == 0 {
					t.Fatalf("source %d: %d accepts after refusal, epoch %d; the network never drained its injection queues",
						s.src, s.accepts, epochs[s.src])
				}
			}

			r, ok := net.(noc.Resetter)
			if !ok {
				t.Fatalf("%s does not implement noc.Resetter", name)
			}
			k.Reset()
			r.Reset()
			after := net.InjectEpochs()
			if len(after) != len(epochs) || &after[0] != &epochs[0] {
				t.Fatal("Reset replaced the InjectEpochs backing array; the hub reads the one it took at construction")
			}
			for c := 0; c < net.Clusters(); c++ {
				if e := epochs[c]; e != 0 {
					t.Fatalf("after Reset: epochs[%d] = %d, want 0", c, e)
				}
			}
		})
	}
}
