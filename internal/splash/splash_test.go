package splash

import (
	"testing"

	"corona/internal/traffic"
)

func TestElevenApps(t *testing.T) {
	apps := Apps()
	if len(apps) != 11 {
		t.Fatalf("apps = %d, want 11 (Table 3)", len(apps))
	}
	wantOrder := []string{"Barnes", "Cholesky", "FFT", "FMM", "LU", "Ocean",
		"Radiosity", "Radix", "Raytrace", "Volrend", "Water-Sp"}
	for i, a := range apps {
		if a.Spec.Name != wantOrder[i] {
			t.Errorf("app %d = %s, want %s (Table 3 order)", i, a.Spec.Name, wantOrder[i])
		}
	}
}

func TestTable3RequestCounts(t *testing.T) {
	want := map[string]int{
		"Barnes": 7_200_000, "Cholesky": 600_000, "FFT": 176_000_000,
		"FMM": 1_800_000, "LU": 34_000_000, "Ocean": 240_000_000,
		"Radiosity": 4_200_000, "Radix": 189_000_000, "Raytrace": 700_000,
		"Volrend": 3_600_000, "Water-Sp": 3_200_000,
	}
	for _, a := range Apps() {
		if a.Spec.DefaultRequests != want[a.Spec.Name] {
			t.Errorf("%s requests = %d, want %d (Table 3)",
				a.Spec.Name, a.Spec.DefaultRequests, want[a.Spec.Name])
		}
	}
}

func TestDemandClasses(t *testing.T) {
	// The paper's analysis: Barnes/Radiosity/Volrend/Water-Sp fit under ECM's
	// 0.96 TB/s; Cholesky/FFT/Ocean/Radix demand well above it; FMM sits just
	// above; LU and Raytrace are moderate but bursty.
	low := map[string]bool{"Barnes": true, "Radiosity": true, "Volrend": true, "Water-Sp": true}
	high := map[string]bool{"Cholesky": true, "FFT": true, "Ocean": true, "Radix": true}
	for _, a := range Apps() {
		d := a.Spec.DemandTBs
		switch {
		case low[a.Spec.Name] && d >= 0.96:
			t.Errorf("%s demand %v should be under ECM bandwidth", a.Spec.Name, d)
		case high[a.Spec.Name] && d < 2:
			t.Errorf("%s demand %v should be well above ECM bandwidth", a.Spec.Name, d)
		}
	}
}

func TestBurstyApps(t *testing.T) {
	for _, a := range Apps() {
		bursty := a.Spec.Burst != nil
		wantBursty := a.Spec.Name == "LU" || a.Spec.Name == "Raytrace"
		if bursty != wantBursty {
			t.Errorf("%s bursty = %v, want %v", a.Spec.Name, bursty, wantBursty)
		}
	}
}

func TestSpecsGeneratorsRun(t *testing.T) {
	// Every model must produce a valid, monotone stream.
	for _, s := range Specs() {
		g := traffic.NewGenerator(s, 64, 42)
		var prev uint64
		for i := 0; i < 200; i++ {
			r := g.Next(i % 64)
			if i%64 == 0 {
				if uint64(r.Time) < prev {
					t.Fatalf("%s: time regressed", s.Name)
				}
				prev = uint64(r.Time)
			}
			if traffic.HomeOf(r.Addr, 64) < 0 || traffic.HomeOf(r.Addr, 64) >= 64 {
				t.Fatalf("%s: home out of range", s.Name)
			}
		}
	}
}

func TestDatasetsPresent(t *testing.T) {
	for _, a := range Apps() {
		if a.Dataset == "" || a.DefaultDataset == "" {
			t.Errorf("%s missing dataset strings for Table 3", a.Spec.Name)
		}
	}
}
