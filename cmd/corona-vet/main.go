// Command corona-vet is the repository's static-analysis gate: the
// internal/lint analyzer suite packaged as a `go vet` tool. Build it once and
// hand it to the toolchain —
//
//	go build -o /tmp/corona-vet ./cmd/corona-vet
//	go vet -vettool=/tmp/corona-vet ./...
//
// go vet drives the binary per compilation unit; diagnostics land on stderr in the usual
// file:line:col form and any finding fails the run. Individual analyzers can
// be switched off with -<name>=false (e.g. -determinism=false). See
// docs/LINTING.md for the catalog and the //lint:allow escape hatch.
package main

import (
	"corona/internal/lint"
	"corona/internal/lint/analysis"
)

func main() {
	analysis.Main("corona-vet", lint.Analyzers())
}
