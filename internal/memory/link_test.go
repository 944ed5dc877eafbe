package memory

import (
	"testing"

	"corona/internal/sim"
)

// scanLink is the link as it was before bookings merged: one window per
// booking, found by the same first-fit scan and inserted without joining
// its neighbours. It stays here as the reference reserve is checked
// against.
type scanLink struct {
	booked []ival
}

func (l *scanLink) reserve(now, at sim.Time, bytes int, bytesPerCycle float64) (start, end sim.Time) {
	i := 0
	for i < len(l.booked) && l.booked[i].end <= now {
		i++
	}
	if i > 0 {
		l.booked = append(l.booked[:0], l.booked[i:]...)
	}
	dur := sim.Time(float64(bytes) / bytesPerCycle)
	if float64(dur) < float64(bytes)/bytesPerCycle {
		dur++
	}
	t := at
	if t < now {
		t = now
	}
	idx := len(l.booked)
	for j, iv := range l.booked {
		if iv.start >= t+dur {
			idx = j
			break
		}
		if iv.end > t {
			t = iv.end
		}
	}
	l.booked = append(l.booked, ival{})
	copy(l.booked[idx+1:], l.booked[idx:])
	l.booked[idx] = ival{start: t, end: t + dur}
	return t, t + dur
}

// TestMergedLinkMatchesScan drives reserve and the per-booking scan with the
// same random command and data-return sequences, the way Submit books
// them, and requires every booking to be identical. Half-duplex links book
// commands and data on one list; full-duplex links book them on two. The
// merged list must stay sorted, disjoint and free of touching neighbours,
// and never hold more windows than the scan's.
func TestMergedLinkMatchesScan(t *testing.T) {
	rates := []struct {
		name    string
		in, out float64
		half    bool
	}{
		{"ocm-half", 32, 32, true},
		{"ecm-full", 1.5, 1.5, false},
		{"odd-half", 5.3, 5.3, true},
		{"odd-full", 7, 2.25, false},
	}
	for _, r := range rates {
		t.Run(r.name, func(t *testing.T) {
			rng := sim.NewRand(uint64(len(r.name)) * 977)
			merges := 0
			for seq := 0; seq < 100; seq++ {
				var in, out link
				var refIn, refOut scanLink
				outL, refOutL := &out, &refOut
				if r.half {
					outL, refOutL = &in, &refIn
				}
				now := sim.Time(0)
				for call := 0; call < 400; call++ {
					now += sim.Time(rng.Intn(3) * rng.Intn(8))
					req := 16 + rng.Intn(4)*64
					s, e := in.reserve(now, now, req, r.in)
					rs, re := refIn.reserve(now, now, req, r.in)
					if s != rs || e != re {
						t.Fatalf("seq %d call %d: command booked [%d,%d), scan gives [%d,%d)", seq, call, s, e, rs, re)
					}
					if rng.Intn(4) == 0 {
						continue // a write: no data return
					}
					at := e + sim.Time(rng.Intn(120))
					rsp := 72 + rng.Intn(3)
					s, e = outL.reserve(now, at, rsp, r.out)
					rs, re = refOutL.reserve(now, at, rsp, r.out)
					if s != rs || e != re {
						t.Fatalf("seq %d call %d: data booked [%d,%d), scan gives [%d,%d)", seq, call, s, e, rs, re)
					}
					for _, l := range []struct {
						got  *link
						want *scanLink
					}{{&in, &refIn}, {outL, refOutL}} {
						merges += len(l.want.booked) - len(l.got.booked)
						for i, iv := range l.got.booked {
							if iv.start >= iv.end || i > 0 && l.got.booked[i-1].end >= iv.start {
								t.Fatalf("seq %d call %d: windows %v are not sorted, disjoint and apart", seq, call, l.got.booked)
							}
						}
						if len(l.got.booked) > len(l.want.booked) {
							t.Fatalf("seq %d call %d: %d merged windows, scan holds %d", seq, call, len(l.got.booked), len(l.want.booked))
						}
					}
				}
			}
			if merges == 0 {
				t.Fatal("no booking ever joined a neighbour; the sequences do not exercise merging")
			}
		})
	}
}
