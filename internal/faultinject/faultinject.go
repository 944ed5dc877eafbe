// Package faultinject provides deterministic, seed-driven failure points for
// chaos testing the durability layer. A failure point is a named call site —
// Fire("store.append.torn") — that does nothing in production: when no fault
// is armed, Fire is a single atomic load and an immediate return, so points
// can sit on hot paths (store writes, cell execution) permanently.
//
// Tests (or an operator, via corona-serve's CORONA_FAULTS environment
// variable) arm points with a spec:
//
//	point:mode@N          fire on exactly the Nth hit of the point
//	point:mode:p=F:seed=S fire on each hit with probability F, decided by a
//	                      stateless hash of (S, hit index) — deterministic
//	                      for a given seed regardless of goroutine timing
//
// Mode is "error" (Fire returns an *Fault wrapping ErrInjected) or "panic"
// (Fire panics with *Panic). Multiple comma-separated specs arm multiple
// points. Both triggers are deterministic: the Nth-hit form trivially so,
// the probabilistic form because the decision depends only on the seed and
// the hit ordinal, never on shared RNG state or scheduling.
//
// The store treats any injected error as a crashed disk (it wedges and
// refuses further writes), which is how the chaos suites simulate killing a
// daemon at an arbitrary write point without leaving the process.
package faultinject

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// ErrInjected is the sentinel every injected error wraps;
// errors.Is(err, ErrInjected) distinguishes a simulated fault from a real
// I/O failure.
var ErrInjected = errors.New("faultinject: injected fault")

// Fault is the error returned by an armed point in "error" mode.
type Fault struct {
	// Point is the failure site that fired.
	Point string
	// Hit is the 1-based hit ordinal at which it fired.
	Hit uint64
}

func (f *Fault) Error() string {
	return fmt.Sprintf("faultinject: %s failed (hit %d)", f.Point, f.Hit)
}

func (f *Fault) Unwrap() error { return ErrInjected }

// Panic is the value an armed point in "panic" mode panics with.
type Panic struct {
	Point string
	Hit   uint64
}

func (p *Panic) String() string {
	return fmt.Sprintf("faultinject: %s panicked (hit %d)", p.Point, p.Hit)
}

// mode selects what an armed point does when it fires.
type mode int

const (
	modeError mode = iota
	modePanic
)

// point is one armed failure site.
type point struct {
	name string
	mode mode

	// Nth-hit trigger: fire exactly when hits reaches n (n > 0).
	n uint64
	// Probabilistic trigger: fire when hash(seed, hit) < p (0 < p <= 1).
	p    float64
	seed uint64

	hits atomic.Uint64
}

// registry holds the armed points. armed is the fast-path gate: while it is
// false (the permanent state in production) Fire never touches the map or
// the mutex.
var (
	armed    atomic.Bool
	mu       sync.Mutex
	registry map[string]*point
)

// Arm parses a comma-separated spec list and arms its points, adding to any
// already armed. It returns an error on a malformed spec without changing
// the armed set.
func Arm(spec string) error {
	parsed := make([]*point, 0, 2)
	for _, one := range strings.Split(spec, ",") {
		one = strings.TrimSpace(one)
		if one == "" {
			continue
		}
		pt, err := parseSpec(one)
		if err != nil {
			return err
		}
		parsed = append(parsed, pt)
	}
	if len(parsed) == 0 {
		return fmt.Errorf("faultinject: empty spec %q", spec)
	}
	mu.Lock()
	defer mu.Unlock()
	if registry == nil {
		registry = make(map[string]*point)
	}
	for _, pt := range parsed {
		registry[pt.name] = pt
	}
	armed.Store(true)
	return nil
}

// parseSpec parses "point:mode@N" or "point:mode:p=F:seed=S".
func parseSpec(s string) (*point, error) {
	name, rest, ok := strings.Cut(s, ":")
	if !ok || name == "" {
		return nil, fmt.Errorf("faultinject: spec %q: want point:mode@N or point:mode:p=F:seed=S", s)
	}
	pt := &point{name: name}
	modeStr, trigger, _ := strings.Cut(rest, "@")
	if trigger != "" {
		// Nth-hit form.
		modeStr = strings.TrimSuffix(modeStr, ":")
		n, err := strconv.ParseUint(trigger, 10, 64)
		if err != nil || n == 0 {
			return nil, fmt.Errorf("faultinject: spec %q: hit count %q must be a positive integer", s, trigger)
		}
		pt.n = n
	} else {
		// Probabilistic form: mode:p=F:seed=S.
		parts := strings.Split(modeStr, ":")
		if len(parts) != 3 {
			return nil, fmt.Errorf("faultinject: spec %q: want point:mode@N or point:mode:p=F:seed=S", s)
		}
		modeStr = parts[0]
		pv, ok1 := strings.CutPrefix(parts[1], "p=")
		sv, ok2 := strings.CutPrefix(parts[2], "seed=")
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("faultinject: spec %q: want p=F:seed=S after the mode", s)
		}
		p, err := strconv.ParseFloat(pv, 64)
		if err != nil || !(p > 0 && p <= 1) { // written so NaN is rejected too
			return nil, fmt.Errorf("faultinject: spec %q: probability %q must be in (0,1]", s, pv)
		}
		seed, err := strconv.ParseUint(sv, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("faultinject: spec %q: bad seed %q", s, sv)
		}
		pt.p, pt.seed = p, seed
	}
	switch modeStr {
	case "error":
		pt.mode = modeError
	case "panic":
		pt.mode = modePanic
	default:
		return nil, fmt.Errorf("faultinject: spec %q: mode %q must be \"error\" or \"panic\"", s, modeStr)
	}
	return pt, nil
}

// Disarm clears every armed point and restores the no-op fast path.
func Disarm() {
	mu.Lock()
	defer mu.Unlock()
	registry = nil
	armed.Store(false)
}

// Active reports whether any point is armed.
func Active() bool { return armed.Load() }

// Hits returns how many times the named armed point has been hit; 0 when it
// is not armed.
func Hits(name string) uint64 {
	if !armed.Load() {
		return 0
	}
	mu.Lock()
	pt := registry[name]
	mu.Unlock()
	if pt == nil {
		return 0
	}
	return pt.hits.Load()
}

// Fire is the failure point. Disarmed (the production state) it is a single
// atomic load. Armed, it counts the hit and — when the point's trigger says
// so — returns an *Fault (mode "error") or panics with *Panic (mode
// "panic").
func Fire(name string) error {
	if !armed.Load() {
		return nil
	}
	mu.Lock()
	pt := registry[name]
	mu.Unlock()
	if pt == nil {
		return nil
	}
	hit := pt.hits.Add(1)
	fire := false
	switch {
	case pt.n > 0:
		fire = hit == pt.n
	case pt.p > 0:
		// Stateless per-hit decision: splitmix64(seed ^ hit) mapped to [0,1).
		fire = float64(splitmix64(pt.seed^hit)>>11)/float64(1<<53) < pt.p
	}
	if !fire {
		return nil
	}
	if pt.mode == modePanic {
		panic(&Panic{Point: name, Hit: hit})
	}
	return &Fault{Point: name, Hit: hit}
}

// splitmix64 is the standard 64-bit mix; good enough to turn (seed, hit)
// into an independent uniform draw.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
