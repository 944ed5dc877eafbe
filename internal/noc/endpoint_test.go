package noc

import (
	"fmt"
	"strings"
	"testing"

	"corona/internal/sim"
)

// TestCreditsHandOffInOrder drains a destination's pool, queues two
// waiters, and checks that returned credits reach them first-come
// first-served before any refills the pool, that overfilling panics, and
// that Reset refills and forgets waiters.
func TestCreditsHandOffInOrder(t *testing.T) {
	c := NewCredits("test", 2, 2)
	for src := 0; src < 2; src++ {
		if !c.Take(1, src) {
			t.Fatalf("credit %d of 2 refused", src)
		}
	}
	if c.Take(1, 5) || c.Take(1, 7) {
		t.Fatal("Take succeeded on an empty pool")
	}
	for _, want := range []int{5, 7} {
		if src, ok := c.Return(1); !ok || src != want {
			t.Fatalf("Return handed to (%d, %v), want waiter %d", src, ok, want)
		}
	}
	for i := 0; i < 2; i++ {
		if _, ok := c.Return(1); ok {
			t.Fatal("Return handed a credit to a waiter that was already served")
		}
	}
	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "test: credit overflow at cluster 1") {
				t.Fatalf("third Return on a full pool: recovered %v, want the overflow panic", r)
			}
		}()
		c.Return(1)
	}()

	c.Take(0, 1)
	c.Take(0, 1)
	c.Take(0, 3) // waits
	c.Reset()
	if !c.Take(0, 1) || !c.Take(0, 2) {
		t.Fatal("Reset did not refill the pool")
	}
	c.Take(0, 4)
	if src, ok := c.Return(0); !ok || src != 4 {
		t.Fatalf("after Reset, Return handed to (%d, %v), want the new waiter 4, not the dropped 3", src, ok)
	}
}

// TestEndpointsCheckNamesFabric pins Check's panics: an invalid message
// reports Validate's error, a cluster-local one names the fabric.
func TestEndpointsCheckNamesFabric(t *testing.T) {
	e := NewEndpoints(sim.NewKernel(), "ring", 4)
	for _, c := range []struct {
		m    *Message
		want string
	}{
		{nil, "noc: nil message"},
		{&Message{ID: 3, Src: 0, Dst: 9, Size: 16}, "destination 9 out of range"},
		{&Message{ID: 4, Src: 2, Dst: 2, Size: 16}, "ring: message 4 is cluster-local"},
	} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), c.want) {
					t.Errorf("Check(%+v): recovered %v, want %q", c.m, r, c.want)
				}
			}()
			e.Check(c.m)
		}()
	}
	e.Check(&Message{ID: 5, Src: 1, Dst: 2, Size: 16})
}
