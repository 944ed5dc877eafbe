package noc_test

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	_ "corona/internal/mesh"
	"corona/internal/noc"
	_ "corona/internal/swmr"
	_ "corona/internal/xbar"
)

var testFabrics atomic.Int64

// testFabric returns a copy of the crossbar's descriptor under a name no
// other test run in this process has registered, with no display label.
// The registry is process-global, so whatever a test registers must be a
// working fabric for every test that walks it.
func testFabric(t *testing.T) noc.Fabric {
	f, ok := noc.Lookup("xbar")
	if !ok {
		t.Fatal("xbar fabric not registered")
	}
	f.Name = fmt.Sprintf("registry-test-%d", testFabrics.Add(1))
	f.Display = ""
	return f
}

func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil || !strings.Contains(fmt.Sprint(r), want) {
			t.Errorf("panic = %v, want one mentioning %q", r, want)
		}
	}()
	f()
}

func TestRegisterIndexesDisplayLabels(t *testing.T) {
	f := testFabric(t)
	f.Display = strings.ToUpper(f.Name)
	noc.Register(f)
	if name, ok := noc.ByLabel(f.Display); !ok || name != f.Name {
		t.Fatalf("ByLabel(%q) = %q, %v, want %q", f.Display, name, ok, f.Name)
	}

	// A second fabric may not take an existing label, whether set
	// explicitly or defaulted from its name, and a rejected registration
	// leaves no trace.
	dup := testFabric(t)
	dup.Display = "XBar"
	mustPanic(t, `display label "XBar"`, func() { noc.Register(dup) })
	if _, ok := noc.Lookup(dup.Name); ok {
		t.Errorf("fabric %q registered despite its duplicate label", dup.Name)
	}
	dup.Display = f.Display
	mustPanic(t, "display label", func() { noc.Register(dup) })
	undisplayed := testFabric(t)
	noc.Register(undisplayed)
	clash := testFabric(t)
	clash.Display = undisplayed.Name
	mustPanic(t, "display label", func() { noc.Register(clash) })
	mustPanic(t, "registered twice", func() { noc.Register(undisplayed) })

	if name, ok := noc.ByLabel("SWMR"); !ok || name != "swmr" {
		t.Errorf("ByLabel(SWMR) = %q, %v", name, ok)
	}
	if _, ok := noc.ByLabel("swmr"); ok {
		t.Error("ByLabel matched a registry name, not a display label")
	}
}

func TestCatalogRowPerFabric(t *testing.T) {
	cat := noc.Catalog()
	names := noc.Names()
	if len(cat) != len(names) {
		t.Fatalf("catalog has %d rows for %d fabrics", len(cat), len(names))
	}
	for i, e := range cat {
		if e.Name != names[i] || e.Display != noc.DisplayName(e.Name) {
			t.Errorf("row %d = %+v, want fabric %q", i, e, names[i])
		}
	}
	byName := map[string]noc.CatalogEntry{}
	for _, e := range cat {
		byName[e.Name] = e
	}
	for name, tbs := range map[string]float64{"xbar": 20.48, "swmr": 20.48, "hmesh": 1.28, "lmesh": 0.64} {
		if e := byName[name]; e.BisectionTBs != tbs || e.MinTransitCycles == 0 {
			t.Errorf("%s row = %+v, want %.2f TB/s and a stated transit", name, e, tbs)
		}
	}
}
