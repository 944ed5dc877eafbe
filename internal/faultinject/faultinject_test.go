package faultinject

import (
	"errors"
	"sync"
	"testing"
)

func TestDisarmedFireIsNil(t *testing.T) {
	Disarm()
	if err := Fire("anything"); err != nil {
		t.Fatalf("disarmed Fire = %v, want nil", err)
	}
	if Active() {
		t.Fatal("Active() with nothing armed")
	}
}

func TestNthHitErrorMode(t *testing.T) {
	defer Disarm()
	if err := Arm("p:error@3"); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		err := Fire("p")
		if i == 3 {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("hit %d: err = %v, want ErrInjected", i, err)
			}
			var f *Fault
			if !errors.As(err, &f) || f.Point != "p" || f.Hit != 3 {
				t.Fatalf("hit %d: fault = %+v", i, f)
			}
		} else if err != nil {
			t.Fatalf("hit %d: err = %v, want nil", i, err)
		}
	}
	if got := Hits("p"); got != 5 {
		t.Fatalf("Hits = %d, want 5", got)
	}
}

func TestPanicMode(t *testing.T) {
	defer Disarm()
	if err := Arm("p:panic@1"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		v := recover()
		p, ok := v.(*Panic)
		if !ok || p.Point != "p" || p.Hit != 1 {
			t.Fatalf("recovered %v, want *Panic for point p hit 1", v)
		}
	}()
	Fire("p")
	t.Fatal("Fire did not panic")
}

func TestUnarmedPointIsUntouched(t *testing.T) {
	defer Disarm()
	if err := Arm("p:error@1"); err != nil {
		t.Fatal(err)
	}
	if err := Fire("other"); err != nil {
		t.Fatalf("unarmed point fired: %v", err)
	}
}

func TestProbabilisticIsDeterministic(t *testing.T) {
	defer Disarm()
	run := func() []int {
		Disarm()
		if err := Arm("p:error:p=0.5:seed=42"); err != nil {
			t.Fatal(err)
		}
		var fired []int
		for i := 1; i <= 64; i++ {
			if Fire("p") != nil {
				fired = append(fired, i)
			}
		}
		return fired
	}
	a, b := run(), run()
	if len(a) == 0 || len(a) == 64 {
		t.Fatalf("p=0.5 fired on %d/64 hits; trigger looks stuck", len(a))
	}
	if len(a) != len(b) {
		t.Fatalf("two identical runs fired %d and %d times", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %v vs %v", i, a, b)
		}
	}
}

func TestMultiSpecAndBadSpecs(t *testing.T) {
	defer Disarm()
	if err := Arm("a:error@1, b:panic@2"); err != nil {
		t.Fatal(err)
	}
	if Fire("a") == nil {
		t.Fatal("point a did not fire")
	}
	Fire("b") // hit 1 of 2: must not panic
	for _, bad := range []string{
		"", "noColon", "p:maybe@1", "p:error@0", "p:error@x",
		"p:error:p=2:seed=1", "p:error:p=0.5", "p:error:q=0.5:seed=1",
	} {
		if err := Arm(bad); err == nil {
			t.Errorf("Arm(%q) accepted", bad)
		}
	}
	// The failed Arms must not have clobbered the armed set.
	if !Active() {
		t.Fatal("bad specs disarmed the registry")
	}
}

func TestConcurrentFire(t *testing.T) {
	defer Disarm()
	if err := Arm("p:error@100"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	fired := 0
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if Fire("p") != nil {
					mu.Lock()
					fired++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if fired != 1 {
		t.Fatalf("Nth-hit trigger fired %d times across goroutines, want exactly 1", fired)
	}
	if got := Hits("p"); got != 400 {
		t.Fatalf("Hits = %d, want 400", got)
	}
}

// armedSet snapshots the armed registry: point name to armed point.
func armedSet() map[string]*point {
	mu.Lock()
	defer mu.Unlock()
	set := make(map[string]*point, len(registry))
	for name, pt := range registry {
		set[name] = pt
	}
	return set
}

// FuzzParseSpec fuzzes the fault-spec parser behind Arm and CORONA_FAULTS:
// parseSpec either fails or returns a named point with exactly one
// trigger — a positive hit count or a probability in (0,1] — and a
// malformed Arm leaves the armed set unchanged.
func FuzzParseSpec(f *testing.F) {
	for _, spec := range []string{
		"p:error@3", "p:panic@1", "p:error:p=0.5:seed=42", "a:error@1, b:panic@2",
		"store.append.torn:error@2", "core.cell.run:panic@3",
		"", "noColon", "p:maybe@1", "p:error@0", "p:error@x",
		"p:error:p=2:seed=1", "p:error:p=0.5", "p:error:q=0.5:seed=1",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		if pt, err := parseSpec(spec); err == nil {
			if pt.name == "" {
				t.Fatalf("parseSpec(%q) accepted an empty point name", spec)
			}
			nth, prob := pt.n > 0, pt.p > 0 && pt.p <= 1
			if nth == prob || (nth && pt.p != 0) {
				t.Fatalf("parseSpec(%q) = n %d, p %v: want exactly one trigger", spec, pt.n, pt.p)
			}
		}

		defer Disarm()
		if err := Arm("fuzz.base:error@1"); err != nil {
			t.Fatal(err)
		}
		before := armedSet()
		if err := Arm(spec); err != nil {
			after := armedSet()
			if len(after) != len(before) || !Active() {
				t.Fatalf("malformed Arm(%q) changed the armed set: %v -> %v", spec, before, after)
			}
			for name, pt := range before {
				if after[name] != pt {
					t.Fatalf("malformed Arm(%q) replaced point %q", spec, name)
				}
			}
		}
	})
}
