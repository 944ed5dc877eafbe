package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"

	"corona/internal/config"
	"corona/internal/traffic"
)

// cacheSchema versions the cached-entry layout. Bump it whenever Result or
// config.System gains, loses, or reinterprets a field, so stale entries
// miss instead of resurfacing with wrong shapes.
//
// Schema 2: Result gained KernelEvents (time-wheel kernel PR).
// Schema 3: config.System became declarative (Fabric name + FabricParams
// map replacing the NetworkKind enum and typed overrides); keys now
// fingerprint every sizing parameter, so two custom configs sharing a
// fabric name can never collide.
// Schema 4: P99LatencyNs became exact at every request count; entries for
// cells above 2^17 requests held a log-bucket midpoint.
const cacheSchema = 4

// cacheEntry is the on-disk form of one sweep cell. The fingerprint — the
// full JSON of the cell's parameters, not just its labels — is stored
// alongside the result and re-checked on load, so both a filename-hash
// collision and a parameter change behind an unchanged name degrade to a
// cache miss rather than a wrong table.
type cacheEntry struct {
	Schema      int    `json:"schema"`
	Fingerprint string `json:"fingerprint"`
	Result      Result `json:"result"`
}

// resultCache is a best-effort on-disk cache of completed sweep cells, keyed
// by (config, workload, requests, seed). Every I/O failure — unreadable
// entry, full disk, unwritable directory — degrades to simulating the cell
// again; the cache can never change results, only skip redundant work.
// Result round-trips through encoding/json exactly (integers are integers,
// float64 rendering is shortest-round-trip), so cached sweeps reproduce live
// sweeps byte-for-byte.
type resultCache struct {
	dir string
}

// openCache returns a cache rooted at dir, creating it if needed, or nil
// (meaning "no cache") when dir is empty or cannot be created.
func openCache(dir string) *resultCache {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil
	}
	return &resultCache{dir: dir}
}

// fingerprint serializes everything a cell result is a function of — the
// full configuration and workload structs (including ablation overrides,
// which JSON dereferences), not just their display names — plus the request
// count and derived seed. A caller who mutates Sweep.Configs or
// Sweep.Workloads behind an unchanged name therefore misses instead of
// reloading the old parameters' result. What the fingerprint cannot see is
// the simulator code itself: bump cacheSchema (or clear the directory) when
// a model change alters results.
func cellFingerprint(cfg config.System, spec traffic.Spec, requests int, seed uint64) (string, bool) {
	cj, err1 := json.Marshal(cfg)
	sj, err2 := json.Marshal(spec)
	if err1 != nil || err2 != nil {
		return "", false
	}
	return fmt.Sprintf("%d\x00%s\x00%s\x00%d\x00%d", cacheSchema, cj, sj, requests, seed), true
}

func (c *resultCache) path(fingerprint string) string {
	h := sha256.Sum256([]byte(fingerprint))
	return filepath.Join(c.dir, "cell-"+hex.EncodeToString(h[:12])+".json")
}

// load returns the cached result for the cell, if a valid entry exists. A
// corrupted or truncated entry — a torn write from a killed process, disk
// rot, a stray editor — is treated as a miss and evicted so it cannot keep
// costing a failed parse on every sweep; it can never fail the sweep
// itself, which simply re-simulates the cell and rewrites the entry.
func (c *resultCache) load(cfg config.System, spec traffic.Spec, requests int, seed uint64) (Result, bool) {
	if c == nil {
		return Result{}, false
	}
	fp, ok := cellFingerprint(cfg, spec, requests, seed)
	if !ok {
		return Result{}, false
	}
	path := c.path(fp)
	raw, err := os.ReadFile(path)
	if err != nil {
		return Result{}, false
	}
	var e cacheEntry
	if err := json.Unmarshal(raw, &e); err != nil {
		os.Remove(path)
		slog.Warn("core: evicting corrupted sweep-cache entry",
			"path", path, "bytes", len(raw), "err", err)
		return Result{}, false
	}
	if e.Schema != cacheSchema || e.Fingerprint != fp {
		// Structurally valid but stale or hash-colliding: an ordinary miss.
		return Result{}, false
	}
	return e.Result, true
}

// store writes the cell's result atomically (temp file + rename), so a
// concurrent or crashed writer can never leave a half-written entry behind.
func (c *resultCache) store(cfg config.System, spec traffic.Spec, requests int, seed uint64, r Result) {
	if c == nil {
		return
	}
	fp, ok := cellFingerprint(cfg, spec, requests, seed)
	if !ok {
		return
	}
	raw, err := json.Marshal(cacheEntry{Schema: cacheSchema, Fingerprint: fp, Result: r})
	if err != nil {
		return
	}
	dst := c.path(fp)
	tmp, err := os.CreateTemp(c.dir, "cell-*.tmp")
	if err != nil {
		return
	}
	_, werr := tmp.Write(raw)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return
	}
	if os.Rename(tmp.Name(), dst) != nil {
		os.Remove(tmp.Name())
	}
}
