package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"precursor/internal/fleet"
)

// TestRunBenchScalingSweep runs a tiny 1,2-shard sweep end to end and
// checks the emitted BENCH_cluster.json datapoints.
func TestRunBenchScalingSweep(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "BENCH_cluster.json")
	out, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	err = runBench(benchConfig{
		shardCounts: "1,2", workers: 1, conns: 2,
		records: 50, valueSize: 32, clients: 2, opsPerClient: 50,
		workload: "B", seed: 1, jsonPath: jsonPath, out: out,
	})
	if err != nil {
		t.Fatalf("runBench: %v", err)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatalf("datapoints not written: %v", err)
	}
	var points []BenchPoint
	if err := json.Unmarshal(data, &points); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, data)
	}
	if len(points) != 2 || points[0].Shards != 1 || points[1].Shards != 2 {
		t.Fatalf("points = %+v", points)
	}
	for _, p := range points {
		if p.Ops != 100 || p.Errors != 0 || p.Kops <= 0 {
			t.Errorf("point %d shards: %+v", p.Shards, p)
		}
		if len(p.ShardPuts) != p.Shards {
			t.Errorf("shard_puts has %d entries for %d shards", len(p.ShardPuts), p.Shards)
		}
	}
}

func TestWorkloadByName(t *testing.T) {
	for _, name := range []string{"A", "b", "C", "update-mostly"} {
		if _, err := workloadByName(name); err != nil {
			t.Errorf("workloadByName(%q): %v", name, err)
		}
	}
	if _, err := workloadByName("Z"); err == nil {
		t.Error("workloadByName(Z) accepted")
	}
}

func TestParseTargets(t *testing.T) {
	for _, tc := range []struct {
		name, flag string
		want       []fleet.Target // nil: the flag must be refused
	}{
		{"name=url", "a=http://10.0.0.1:9090/metrics",
			[]fleet.Target{{Name: "a", URL: "http://10.0.0.1:9090/metrics"}}},
		{"bare host:port", "10.0.0.1:9090",
			[]fleet.Target{{Name: "10.0.0.1:9090", URL: "http://10.0.0.1:9090/metrics"}}},
		{"default path", "a=http://h:1, b=h:2/",
			[]fleet.Target{{Name: "a", URL: "http://h:1/metrics"}, {Name: "b", URL: "http://h:2/metrics"}}},
		{"other path kept", "h:3/stats", []fleet.Target{{Name: "h:3", URL: "http://h:3/stats"}}},
		{"empty flag", "", nil},
		{"only separators", " , ,", nil},
		{"no host", "a=http:///metrics", nil},
		{"bad url", "a=http://h:1/%zz", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := parseTargets(tc.flag)
			if tc.want == nil {
				if err == nil {
					t.Fatalf("parseTargets(%q) = %+v, want an error", tc.flag, got)
				}
				return
			}
			if err != nil || !slices.Equal(got, tc.want) {
				t.Fatalf("parseTargets(%q) = %+v, %v; want %+v", tc.flag, got, err, tc.want)
			}
		})
	}
}

func TestExactlyOneMode(t *testing.T) {
	for _, tc := range []struct {
		modes []bool
		ok    bool
	}{
		{[]bool{false, false, false, false}, false},
		{[]bool{true, false, false, false}, true},
		{[]bool{false, false, false, true}, true},
		{[]bool{true, true, false, false}, false},
		{[]bool{true, true, true, true}, false},
	} {
		if got := oneMode(tc.modes...); got != tc.ok {
			t.Errorf("oneMode(%v) = %v, want %v", tc.modes, got, tc.ok)
		}
	}
}
