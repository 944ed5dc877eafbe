// Timed coherence example: the MOESI directory protocol running over the
// real crossbar and broadcast-bus models with full timing — the simulation
// the paper deferred ("has not yet been modeled in the system simulation",
// Section 3.1.2).
//
// The experiment builds a widely shared line, upgrades one sharer to
// Modified, and compares the invalidation latency and crossbar message cost
// with and without the optical broadcast bus.
//
//	go run ./examples/timedcoherence
package main

import (
	"fmt"

	"corona/internal/cohsim"
)

func invalidationRun(useBus bool, sharers int) (latNs float64, msgs uint64, broadcasts uint64) {
	s := cohsim.New(useBus)
	line := uint64(0x2000)
	var issued uint64
	for n := 0; n <= sharers; n++ {
		s.Access(n, line, false, nil)
		issued++
		s.Run(issued)
	}
	before := s.NetworkMessages()
	s.Access(sharers, line, true, nil) // a sharer upgrades
	issued++
	s.Run(issued)
	return s.InvLatency.Mean(), s.NetworkMessages() - before, s.BusBroadcasts()
}

func main() {
	fmt.Println("Timed MOESI over the optical crossbar + broadcast bus")
	fmt.Println()
	fmt.Printf("%-8s  %-22s  %-22s\n", "sharers", "bus: ns / xbar msgs", "unicast: ns / xbar msgs")
	for _, sharers := range []int{4, 16, 40, 63} {
		bl, bm, bb := invalidationRun(true, sharers)
		ul, um, _ := invalidationRun(false, sharers)
		fmt.Printf("%-8d  %6.1f / %-12d  %6.1f / %-12d (broadcasts used: %d)\n",
			sharers, bl, bm, ul, um, bb)
	}

	fmt.Println("\nThe bus invalidates any sharer pool in one two-pass transit;")
	fmt.Println("unicast costs ~2 crossbar messages per sharer and serializes the acks.")
}
