package corona

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"corona/internal/cluster"
	"corona/internal/noc"
	"corona/internal/sim"
	"corona/internal/trace"
)

// mustRun is (*Client).Run on a default client, failing the test on error.
func mustRun(t *testing.T, cfg SystemConfig, spec Workload, requests int, seed uint64) Result {
	t.Helper()
	res, err := NewClient().Run(context.Background(), cfg, spec, requests, seed)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// mustReplay is (*Client).Replay on a default client, failing the test on
// error.
func mustReplay(t *testing.T, cfg SystemConfig, recs []TraceRecord, threadsPerCluster int) Result {
	t.Helper()
	res, err := NewClient().Replay(context.Background(), cfg, recs, threadsPerCluster)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// mustCompare is (*Client).Compare on a default client, failing the test on
// error.
func mustCompare(t *testing.T, spec Workload, requests int, seed uint64, configs ...SystemConfig) []Result {
	t.Helper()
	res, err := NewClient().Compare(context.Background(), spec, requests, seed, configs...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// mustSweep submits s on c and waits for the job, failing the test on error.
func mustSweep(t *testing.T, c *Client, s *Sweep) *Sweep {
	t.Helper()
	job, err := c.Submit(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPublicConfigurations(t *testing.T) {
	cfgs := Configurations()
	if len(cfgs) != 5 {
		t.Fatalf("configurations = %d, want 5", len(cfgs))
	}
	if Corona().Name() != "XBar/OCM" {
		t.Fatalf("Corona() = %s", Corona().Name())
	}
}

func TestPublicWorkloads(t *testing.T) {
	if n := len(SyntheticWorkloads()); n != 4 {
		t.Fatalf("synthetics = %d, want 4", n)
	}
	if n := len(SplashWorkloads()); n != 11 {
		t.Fatalf("splash = %d, want 11", n)
	}
	if n := len(AllWorkloads()); n != 15 {
		t.Fatalf("all = %d, want 15", n)
	}
}

func TestPublicRun(t *testing.T) {
	res := mustRun(t, Corona(), SyntheticWorkloads()[0], 1000, 1)
	if res.Requests != 1000 || res.Cycles == 0 {
		t.Fatalf("bad result: %+v", res)
	}
	if res.Config != "XBar/OCM" || res.Workload != "Uniform" {
		t.Fatalf("labels: %s / %s", res.Config, res.Workload)
	}
}

func TestPublicReplay(t *testing.T) {
	recs := []TraceRecord{
		{Time: 0, Thread: 0, Addr: 0x40 * 5, Write: false},
		{Time: 1, Thread: 900, Addr: 0x40 * 9, Write: true},
	}
	res := mustReplay(t, Corona(), recs, 16)
	if res.Requests != 2 {
		t.Fatalf("replay requests = %d, want 2", res.Requests)
	}
}

func TestPublicTables(t *testing.T) {
	checks := map[string]struct {
		table *Table
		want  string
	}{
		"Table1": {Table1(), "MOESI"},
		"Table2": {Table2(), "1024 K"},
		"Table3": {Table3(), "Radix"},
		"Table4": {Table4(), "256 fibers"},
	}
	for name, c := range checks {
		if !strings.Contains(c.table.String(), c.want) {
			t.Errorf("%s missing %q:\n%s", name, c.want, c.table)
		}
	}
}

func TestPublicBudgets(t *testing.T) {
	if !CrossbarBudget(10).Closes() {
		t.Error("crossbar budget should close at 10 dBm")
	}
	deep := OCMChainBudget(0, 4)
	shallow := OCMChainBudget(0, 1)
	if deep.MarginDB() >= shallow.MarginDB() {
		t.Error("deeper OCM chains must have less margin")
	}
}

func TestPublicSweep(t *testing.T) {
	s := NewSweep(300, 2)
	s.Workloads = s.Workloads[:1]
	mustSweep(t, NewClient(), s)
	if !strings.Contains(s.Figure8().String(), "Uniform") {
		t.Fatal("Figure 8 missing workload row")
	}
}

func TestPublicSweepParallelDeterminism(t *testing.T) {
	// The façade-level statement of docs/DETERMINISM.md: sequential and
	// parallel sweeps (with an on-disk cache in the mix) render the same
	// bytes.
	render := func(s *Sweep) string {
		return s.Figure8().String() + s.Figure9().String() +
			s.Figure10().String() + s.Figure11().String()
	}
	mk := func() *Sweep {
		s := NewSweep(300, 5)
		s.Workloads = s.Workloads[:2]
		return s
	}
	seq := mustSweep(t, NewClient(WithWorkers(1)), mk())
	par := mustSweep(t, NewClient(WithWorkers(8), WithCacheDir(t.TempDir())), mk())
	if render(seq) != render(par) {
		t.Fatalf("parallel+cached tables differ from sequential:\n%s\n--- want ---\n%s",
			render(par), render(seq))
	}
}

func TestPublicFabricsAndCustomConfig(t *testing.T) {
	names := Fabrics()
	for _, want := range []string{"xbar", "hmesh", "lmesh", "swmr"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("Fabrics() = %v, missing %q", names, want)
		}
	}
	cfg := CustomConfig("", "swmr", OCM, nil)
	if cfg.Name() != "SWMR/OCM" || cfg.Clusters != 64 {
		t.Fatalf("CustomConfig = %+v", cfg)
	}
	res := mustRun(t, cfg, SyntheticWorkloads()[0], 800, 3)
	if res.Config != "SWMR/OCM" || res.Cycles == 0 || res.NetworkPowerW != 32 {
		t.Fatalf("SWMR run = %+v", res)
	}
	if _, err := ParseConfigName("SWMR/OCM"); err != nil {
		t.Errorf("ParseConfigName(SWMR/OCM): %v", err)
	}
	if _, err := ParseConfigName("Warp/OCM"); err == nil {
		t.Error("ParseConfigName accepted an unknown preset")
	}
}

// idealNet is a minimal user-defined fabric: single-cycle delivery, no
// contention, no back pressure — the "infinite interconnect" upper bound.
type idealNet struct {
	noc.MsgPool

	k       *sim.Kernel
	n       int
	deliver []noc.DeliverFunc
	epochs  []uint64 // never refuses, so never moves
	slots   sim.Slots[*noc.Message]
	stats   noc.Stats
}

type idealDeliver idealNet

func (e *idealDeliver) OnEvent(_ sim.Time, data uint64) {
	x := (*idealNet)(e)
	m := x.slots.Take(data)
	x.stats.Messages++
	x.stats.Bytes += uint64(m.Size)
	x.deliver[m.Dst](m)
}

func (x *idealNet) Name() string                               { return "ideal" }
func (x *idealNet) Clusters() int                              { return x.n }
func (x *idealNet) Stats() noc.Stats                           { return x.stats }
func (x *idealNet) SetDeliver(cluster int, fn noc.DeliverFunc) { x.deliver[cluster] = fn }
func (x *idealNet) Consume(_ int, m *noc.Message)              { x.Release(m) }
func (x *idealNet) InjectEpochs() []uint64                     { return x.epochs }
func (x *idealNet) Send(m *noc.Message) bool {
	x.k.ScheduleEvent(1, (*idealDeliver)(x), x.slots.Put(m))
	return true
}

// TestRegisterFabricEndToEnd registers a fabric through the public façade
// and drives it through Client.Run and a matrix sweep — the complete
// "add a topology without touching the simulator" path.
func TestRegisterFabricEndToEnd(t *testing.T) {
	// The registry is process-global, so guard against double registration
	// when the test binary reruns in one process (-count=2, bench mixes).
	if _, registered := noc.Lookup("ideal"); !registered {
		RegisterFabric(Fabric{
			Name:        "ideal",
			Display:     "Ideal",
			Description: "zero-contention single-cycle interconnect (upper bound)",
			Build: func(k *sim.Kernel, p FabricParams) (Network, error) {
				return &idealNet{k: k, n: p.Clusters, deliver: make([]noc.DeliverFunc, p.Clusters),
					epochs: make([]uint64, p.Clusters)}, nil
			},
		})
	}
	ideal := CustomConfig("", "ideal", OCM, nil)
	// Its display label names its presets with no code change.
	if parsed, err := ParseConfigName("Ideal/OCM"); err != nil || !reflect.DeepEqual(parsed, ideal) {
		t.Fatalf("ParseConfigName(Ideal/OCM) = %+v, %v, want %+v", parsed, err, ideal)
	}
	spec := SyntheticWorkloads()[0]
	res := mustRun(t, ideal, spec, 1000, 5)
	if res.Config != "Ideal/OCM" || res.Requests != 1000 {
		t.Fatalf("ideal run = %+v", res)
	}
	real := mustRun(t, Corona(), spec, 1000, 5)
	if res.Cycles > real.Cycles {
		t.Errorf("ideal interconnect (%d cycles) slower than the crossbar (%d)", res.Cycles, real.Cycles)
	}
	// And through an arbitrary matrix with the determinism guarantee.
	mk := func() *Sweep {
		return NewMatrixSweep([]SystemConfig{Corona(), ideal}, AllWorkloads()[:2], 300, 9)
	}
	seq := mustSweep(t, NewClient(WithWorkers(1)), mk())
	par := mustSweep(t, NewClient(WithWorkers(4)), mk())
	if seq.Figure8().String() != par.Figure8().String() {
		t.Fatal("custom-fabric matrix not deterministic across worker counts")
	}
	if !strings.Contains(seq.Figure8().String(), "Ideal/OCM") {
		t.Fatalf("Figure 8 missing the custom column:\n%s", seq.Figure8())
	}
}

func TestPublicCompareCustomConfigs(t *testing.T) {
	spec := SyntheticWorkloads()[0]
	res := mustCompare(t, spec, 600, 3, Corona(), CustomConfig("", "swmr", OCM, nil))
	if len(res) != 2 || res[0].Config != "XBar/OCM" || res[1].Config != "SWMR/OCM" {
		t.Fatalf("explicit-config compare = %+v", res)
	}
}

func TestPublicComparePaperConfigs(t *testing.T) {
	res := mustCompare(t, SyntheticWorkloads()[0], 800, 3)
	if len(res) != 5 {
		t.Fatalf("Compare returned %d results, want 5", len(res))
	}
	for i, cfg := range Configurations() {
		if res[i].Config != cfg.Name() {
			t.Fatalf("result %d is %s, want %s (Configurations() order)", i, res[i].Config, cfg.Name())
		}
	}
	if res[4].Cycles >= res[0].Cycles {
		t.Errorf("XBar/OCM (%d cycles) not faster than LMesh/ECM (%d) under uniform load",
			res[4].Cycles, res[0].Cycles)
	}
}

// TestFullPipeline exercises the complete two-part infrastructure end to
// end, as the paper's Section 4 describes it: synthetic threads run against
// real L1/L2 cache models (the COTSon substitute), the resulting L2 misses
// are serialized to the trace format, read back, and replayed on two system
// configurations by the network simulator.
func TestFullPipeline(t *testing.T) {
	var buf bytes.Buffer
	const perCluster = 100
	w, err := trace.NewWriter(&buf, 64*perCluster)
	if err != nil {
		t.Fatal(err)
	}
	model := cluster.ThreadModel{
		WorkingSetLines:    32 * 1024, // thrashes the 256 KB sim L2
		StreamFrac:         0.2,
		WriteFrac:          0.3,
		ReferencesPerCycle: 0.5,
	}
	for c := 0; c < 64; c++ {
		eng := cluster.NewTraceEngine(cluster.New(c, true), model, 7+uint64(c))
		if err := eng.Generate(w, perCluster); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r, err := trace.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := trace.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 64*perCluster {
		t.Fatalf("trace has %d records, want %d", len(recs), 64*perCluster)
	}

	fast := mustReplay(t, Corona(), recs, cluster.ThreadsPerCluster)
	slow := mustReplay(t, Configurations()[0], recs, cluster.ThreadsPerCluster)
	if fast.Requests != len(recs) || slow.Requests != len(recs) {
		t.Fatalf("replay incomplete: %d/%d", fast.Requests, slow.Requests)
	}
	if fast.Cycles >= slow.Cycles {
		t.Errorf("XBar/OCM replay (%d cycles) not faster than LMesh/ECM (%d)",
			fast.Cycles, slow.Cycles)
	}
	if fast.MeanLatencyNs >= slow.MeanLatencyNs {
		t.Errorf("XBar/OCM latency %.1f >= LMesh/ECM %.1f", fast.MeanLatencyNs, slow.MeanLatencyNs)
	}
}

// TestPublicClientJob drives the context-aware API through the façade: a
// one-shot Client.Run that matches a default client's run result for
// result, typed rejection of bad input, and a streamed Job whose cells cover
// the matrix.
func TestPublicClientJob(t *testing.T) {
	client := NewClient(WithWorkers(4))
	spec := SyntheticWorkloads()[0]
	res, err := client.Run(context.Background(), Corona(), spec, 800, 3)
	if err != nil {
		t.Fatal(err)
	}
	if other := mustRun(t, Corona(), spec, 800, 3); res != other {
		t.Fatalf("Client.Run differs across clients:\n%+v\nvs\n%+v", res, other)
	}

	_, err = client.Run(context.Background(), CustomConfig("", "no-such-fabric", OCM, nil), spec, 100, 1)
	var ce *ConfigError
	if !errors.As(err, &ce) {
		t.Fatalf("unknown fabric: got %v, want *ConfigError", err)
	}

	s := NewMatrixSweep([]SystemConfig{Corona(), CustomConfig("", "swmr", OCM, nil)},
		AllWorkloads()[:2], 300, 9)
	job, err := client.Submit(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	cells := 0
	for cell := range job.Results() {
		cells++
		if cell.Result.Cycles == 0 {
			t.Errorf("cell %s on %s has zero runtime", cell.Workload, cell.Config)
		}
	}
	if err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if cells != 4 {
		t.Fatalf("streamed %d cells, want 4", cells)
	}
}
