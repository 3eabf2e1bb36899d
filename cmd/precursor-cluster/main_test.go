package main

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"precursor"
	"precursor/internal/fleet"
)

// runSweep runs a tiny bench sweep of workload end to end and returns the
// datapoints it wrote to its JSON file.
func runSweep(t *testing.T, shards, replicas, workload string) []BenchPoint {
	t.Helper()
	jsonPath := filepath.Join(t.TempDir(), "BENCH_cluster.json")
	var out bytes.Buffer
	err := runBench(benchConfig{
		shardCounts: shards, replicaCounts: replicas, workers: 1, conns: 2,
		records: 50, valueSize: 32, clients: 2, opsPerClient: 50,
		workload: workload, seed: 1, jsonPath: jsonPath, out: &out,
	})
	if err != nil {
		t.Fatalf("runBench: %v\n%s", err, out.String())
	}
	t.Logf("\n%s", out.String())
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatalf("datapoints not written: %v", err)
	}
	var points []BenchPoint
	if err := json.Unmarshal(data, &points); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, data)
	}
	return points
}

// TestRunBenchScalingSweep runs a tiny 1,2-shard sweep of groups of one
// end to end and checks the emitted BENCH_cluster.json datapoints.
func TestRunBenchScalingSweep(t *testing.T) {
	points := runSweep(t, "1,2", "1", "B")
	if len(points) != 2 || points[0].Shards != 1 || points[1].Shards != 2 {
		t.Fatalf("points = %+v", points)
	}
	for _, p := range points {
		if p.Replicas != 1 || p.Ops != 100 || p.Errors != 0 || p.Kops <= 0 || p.KilledReplica != "" {
			t.Errorf("point %d shards: %+v", p.Shards, p)
		}
		if len(p.ShardPuts) != p.Shards {
			t.Errorf("shard_puts has %d entries for %d shards", len(p.ShardPuts), p.Shards)
		}
	}
}

// TestRunBenchReplicationSweep: -shards 1 -replicas 1,2 runs R = 1, R = 2
// and a kill run at R = 2, whose probe reads fail over to the surviving
// replica and never see ErrShardDown. The kill lands inside the workload:
// the killed replica acks fewer puts than its peer, and a put issued after
// it misses the 2-of-2 quorum, so the kill run counts every op as done or
// failed rather than all as done. The workload is update-heavy: with these
// seeds at least 27 puts follow the kill however the two clients
// interleave, where the read-mostly one has a single put that may precede
// it.
func TestRunBenchReplicationSweep(t *testing.T) {
	points := runSweep(t, "1", "1,2", "A")
	if len(points) != 3 {
		t.Fatalf("%d points, want R=1, R=2 and the kill run: %+v", len(points), points)
	}
	for i, want := range []int{1, 2, 2} {
		p := points[i]
		if p.Shards != 1 || p.Replicas != want || p.Ops+p.Errors != 100 || p.Kops <= 0 || len(p.ShardPuts) != want {
			t.Errorf("point %d: %+v, want 1 shard x %d replicas", i, p, want)
		}
		if kill := i == 2; kill != (p.KilledReplica != "") {
			t.Errorf("point %d: killed replica %q", i, p.KilledReplica)
		}
	}
	for _, p := range points[:2] {
		if p.Errors != 0 {
			t.Errorf("R=%d: %d errors without a kill", p.Replicas, p.Errors)
		}
	}
	if kill := points[2]; kill.ShardDownErrors != 0 || kill.FailoverGapMs <= 0 || kill.WriteQuorum != 2 {
		t.Errorf("kill run: %+v, want 0 shard-down errors and a measured gap", kill)
	}
	kill := points[2]
	killed, ok := kill.ShardPuts[kill.KilledReplica]
	for name, puts := range kill.ShardPuts {
		if ok && name != kill.KilledReplica && killed >= puts {
			t.Errorf("kill run: killed replica %s acked %d puts, its peer %s %d: the kill missed the workload",
				kill.KilledReplica, killed, name, puts)
		}
	}
	if !ok {
		t.Errorf("kill run: no shard_puts entry for the killed replica %s: %v", kill.KilledReplica, kill.ShardPuts)
	}
}

// TestPrintMembers: a group of one prints the cluster-shard line
// precursor-server -shard i/n prints; members of larger groups print
// cluster-replica lines.
func TestPrintMembers(t *testing.T) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	spec := func(addr string) precursor.ShardSpec {
		return precursor.ShardSpec{Addr: addr, PlatformKey: &key.PublicKey}
	}
	for _, tc := range []struct {
		groups [][]precursor.ShardSpec
		want   []string
	}{
		{[][]precursor.ShardSpec{{spec("a:1")}, {spec("b:2")}}, []string{
			"precursor-cluster serving 2 shards",
			"cluster-shard: 0/2 addr=a:1 key=",
			"cluster-shard: 1/2 addr=b:2 key=",
		}},
		{[][]precursor.ShardSpec{{spec("a:1"), spec("a:2")}}, []string{
			"precursor-cluster serving 1 groups x 2 replicas",
			"cluster-replica: 0/1 replica 0/2 addr=a:1 key=",
			"cluster-replica: 0/1 replica 1/2 addr=a:2 key=",
		}},
	} {
		var out bytes.Buffer
		if err := printMembers(&out, tc.groups); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		if len(lines) != len(tc.want) {
			t.Fatalf("printed %q, want %d lines", lines, len(tc.want))
		}
		for i, want := range tc.want {
			if !strings.HasPrefix(lines[i], want) {
				t.Errorf("line %d = %q, want prefix %q", i, lines[i], want)
			}
			if i > 0 && !strings.HasSuffix(lines[i], " measurement="+strings.Repeat("00", 32)) {
				t.Errorf("line %d = %q, want the measurement last", i, lines[i])
			}
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
