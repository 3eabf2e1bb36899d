package ycsb

import (
	"errors"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestGeneratorDeterminism(t *testing.T) {
	mk := func() *Generator {
		g, err := NewGenerator(GeneratorConfig{
			Workload: WorkloadA, Records: 1000, ValueSize: 32, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	a, b := mk(), mk()
	for i := 0; i < 1000; i++ {
		oa, ob := a.Next(), b.Next()
		if oa.Read != ob.Read || oa.Key != ob.Key {
			t.Fatalf("op %d diverged", i)
		}
	}
}

func TestGeneratorMixRatio(t *testing.T) {
	g, err := NewGenerator(GeneratorConfig{
		Workload: WorkloadB, Records: 1000, ValueSize: 8, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	reads := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if g.Next().Read {
			reads++
		}
	}
	ratio := float64(reads) / n
	if math.Abs(ratio-0.95) > 0.01 {
		t.Errorf("read ratio = %.3f, want 0.95", ratio)
	}
}

func TestGeneratorKeysInRange(t *testing.T) {
	g, err := NewGenerator(GeneratorConfig{
		Workload: WorkloadC, Records: 50, ValueSize: 8, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		key := g.Next().Key
		if !strings.HasPrefix(key, "user") {
			t.Fatalf("bad key %q", key)
		}
		var idx int
		if _, err := fmtSscanf(key, &idx); err != nil || idx < 0 || idx >= 50 {
			t.Fatalf("key %q out of range", key)
		}
	}
}

func fmtSscanf(key string, idx *int) (int, error) {
	var n int
	for _, c := range key[4:] {
		if c < '0' || c > '9' {
			return 0, errors.New("non-digit")
		}
		n = n*10 + int(c-'0')
	}
	*idx = n
	return 1, nil
}

// TestZipfianSkew: the hottest key must be drawn far more often than the
// uniform expectation, and all draws stay in range.
func TestZipfianSkew(t *testing.T) {
	g, err := NewGenerator(GeneratorConfig{
		Workload: WorkloadC, Records: 1000, ValueSize: 8,
		Dist: Zipfian, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int)
	const n = 50000
	for i := 0; i < n; i++ {
		counts[g.Next().Key]++
	}
	maxCount := 0
	for _, c := range counts {
		if c > maxCount {
			maxCount = c
		}
	}
	uniform := n / 1000
	if maxCount < 5*uniform {
		t.Errorf("hottest key drawn %d times, uniform expectation %d — not skewed", maxCount, uniform)
	}
}

func TestUniformCoverage(t *testing.T) {
	g, err := NewGenerator(GeneratorConfig{
		Workload: WorkloadC, Records: 100, ValueSize: 8, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for i := 0; i < 10000; i++ {
		seen[g.Next().Key] = true
	}
	if len(seen) < 100 {
		t.Errorf("uniform draw covered %d/100 keys", len(seen))
	}
}

// mapStore is an in-memory Store for runner tests.
type mapStore struct {
	mu sync.Mutex
	m  map[string][]byte
}

func newMapStore() *mapStore { return &mapStore{m: make(map[string][]byte)} }

func (s *mapStore) Put(key string, value []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = append([]byte(nil), value...)
	return nil
}

func (s *mapStore) Get(key string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.m[key]
	if !ok {
		return nil, ErrNotFound
	}
	return v, nil
}

func TestLoadPhase(t *testing.T) {
	s := newMapStore()
	if err := Load(s, 500, 32, 1); err != nil {
		t.Fatal(err)
	}
	if len(s.m) != 500 {
		t.Errorf("loaded %d records", len(s.m))
	}
	v, err := s.Get(Key(499))
	if err != nil || len(v) != 32 {
		t.Errorf("record 499: %d bytes, %v", len(v), err)
	}
}

func TestRunnerCountsAndRatio(t *testing.T) {
	shared := newMapStore()
	if err := Load(shared, 200, 16, 1); err != nil {
		t.Fatal(err)
	}
	report, err := Run(func(i int) (Store, error) { return shared, nil }, RunnerConfig{
		Workload: WorkloadA, Records: 200, ValueSize: 16,
		Clients: 4, OpsPerClient: 2000, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Ops != 4*2000 {
		t.Errorf("ops = %d", report.Ops)
	}
	if report.Errors != 0 {
		t.Errorf("errors = %d", report.Errors)
	}
	ratio := float64(report.ReadOps) / float64(report.Ops)
	if math.Abs(ratio-0.5) > 0.05 {
		t.Errorf("read ratio = %.3f", ratio)
	}
	if report.Kops <= 0 || report.Latency.Count() == 0 {
		t.Errorf("report incomplete: %+v", report)
	}
}

func TestRunnerNotFoundTolerance(t *testing.T) {
	empty := newMapStore() // nothing loaded: all reads miss
	report, err := Run(func(i int) (Store, error) { return empty, nil }, RunnerConfig{
		Workload: WorkloadC, Records: 100, ValueSize: 8,
		Clients: 2, OpsPerClient: 100, Seed: 1,
		NotFoundOK: true, IsNotFound: func(err error) bool { return errors.Is(err, ErrNotFound) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Errors != 0 {
		t.Errorf("not-found reads counted as errors: %d", report.Errors)
	}
	// Without tolerance they are errors.
	report, err = Run(func(i int) (Store, error) { return empty, nil }, RunnerConfig{
		Workload: WorkloadC, Records: 100, ValueSize: 8,
		Clients: 1, OpsPerClient: 50, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Errors != 50 {
		t.Errorf("errors = %d, want 50", report.Errors)
	}
}

func TestRunnerWarmupExcluded(t *testing.T) {
	shared := newMapStore()
	if err := Load(shared, 50, 8, 1); err != nil {
		t.Fatal(err)
	}
	report, err := Run(func(i int) (Store, error) { return shared, nil }, RunnerConfig{
		Workload: WorkloadC, Records: 50, ValueSize: 8,
		Clients: 1, OpsPerClient: 100, WarmupOps: 20, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Ops != 100 {
		t.Errorf("measured ops = %d, want 100 (warmup excluded)", report.Ops)
	}
}

// TestZipfThetaSweep: raising θ must concentrate more mass on the hot
// set, across both the Gray-approximation path (θ<1) and the
// rejection-generator path (θ>1, the skew the heat gate row and
// TestHeatFleetAcceptance run at).
func TestZipfThetaSweep(t *testing.T) {
	hotShare := func(theta float64) float64 {
		g, err := NewGenerator(GeneratorConfig{
			Workload: WorkloadC, Records: 2000, ValueSize: 8,
			Dist: Zipfian, ZipfTheta: theta, Seed: 11,
		})
		if err != nil {
			t.Fatal(err)
		}
		counts := make(map[string]int)
		const n = 40000
		for i := 0; i < n; i++ {
			counts[g.Next().Key]++
		}
		// Share of traffic on the 10 hottest keys.
		top := make([]int, 0, len(counts))
		for _, c := range counts {
			top = append(top, c)
		}
		sort.Sort(sort.Reverse(sort.IntSlice(top)))
		sum := 0
		for i := 0; i < 10 && i < len(top); i++ {
			sum += top[i]
		}
		return float64(sum) / n
	}
	s06, s09, s12 := hotShare(0.6), hotShare(0.9), hotShare(1.2)
	if !(s06 < s09 && s09 < s12) {
		t.Errorf("top-10 share not monotone in θ: 0.6→%.3f 0.9→%.3f 1.2→%.3f", s06, s09, s12)
	}
	if s12 < 0.5 {
		t.Errorf("θ=1.2 top-10 share = %.3f, want a majority of traffic on the hot set", s12)
	}
}

func TestGeneratorValidation(t *testing.T) {
	if _, err := NewGenerator(GeneratorConfig{Records: 0}); err == nil {
		t.Error("zero records accepted")
	}
	if _, err := NewGenerator(GeneratorConfig{Records: 10, ValueSize: -1}); err == nil {
		t.Error("negative value size accepted")
	}
	if _, err := NewGenerator(GeneratorConfig{Records: 10, Dist: Zipfian, ZipfTheta: 1}); err == nil {
		t.Error("theta == 1 accepted (singular for both generator paths)")
	}
	if _, err := NewGenerator(GeneratorConfig{Records: 10, Dist: Zipfian, ZipfTheta: -0.5}); err == nil {
		t.Error("negative theta accepted")
	}
}
