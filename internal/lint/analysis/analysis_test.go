package analysis

import "testing"

func TestNormalizePkgPath(t *testing.T) {
	cases := map[string]string{
		"corona/internal/core":                             "corona/internal/core",
		"corona/internal/core [corona/internal/core.test]": "corona/internal/core",
		"corona/internal/core_test":                        "corona/internal/core",
	}
	for in, want := range cases {
		if got := NormalizePkgPath(in); got != want {
			t.Errorf("NormalizePkgPath(%q) = %q, want %q", in, got, want)
		}
	}
}
