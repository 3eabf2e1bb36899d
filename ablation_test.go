package precursor_test

// Ablation benchmarks: quantify the individual design choices the paper
// argues for (DESIGN.md §5), beyond the headline figures. The functional
// ablations (hardened MACs, inline values, ShieldStore's hash cache) run
// the real stores; the architectural ablations (client- vs server-side
// cryptography, polling vs per-request transitions) use the calibrated
// model, since they compare against hardware costs.

import (
	"fmt"
	"testing"
	"time"

	"precursor"
	"precursor/internal/sgx"
	"precursor/internal/shieldstore"
	"precursor/internal/sim"
)

// benchCluster builds an in-process server+client pair for functional
// ablations.
func benchCluster(b *testing.B, cfg precursor.ServerConfig) (*precursor.Server, *precursor.Client) {
	b.Helper()
	platform, err := precursor.NewPlatform()
	if err != nil {
		b.Fatal(err)
	}
	cfg.Platform = platform
	cfg.Workers = 2
	cfg.PollInterval = time.Microsecond
	fabric := precursor.NewFabric()
	srvDev, err := fabric.NewDevice("server")
	if err != nil {
		b.Fatal(err)
	}
	server, err := precursor.NewServer(srvDev, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(server.Close)

	cliDev, err := fabric.NewDevice("client")
	if err != nil {
		b.Fatal(err)
	}
	cq, sq := fabric.ConnectRC(cliDev, srvDev)
	go func() { _, _ = server.HandleConnection(sq) }()
	client, err := precursor.Connect(precursor.ClientConfig{
		Conn: cq, Device: cliDev,
		PlatformKey: platform.AttestationPublicKey(),
		Measurement: server.Measurement(),
		Timeout:     30 * time.Second,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = client.Close() })
	return server, client
}

// BenchmarkAblationHardenedMACs measures the §3.9 hardening (payload MACs
// stored in the enclave, returned under transport encryption) against the
// base design, on the real store.
func BenchmarkAblationHardenedMACs(b *testing.B) {
	for _, hardened := range []bool{false, true} {
		name := "base"
		if hardened {
			name = "hardened"
		}
		b.Run(name, func(b *testing.B) {
			_, client := benchCluster(b, precursor.ServerConfig{HardenedMACs: hardened})
			value := make([]byte, 256)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				key := fmt.Sprintf("k%d", i%256)
				if err := client.Put(key, value); err != nil {
					b.Fatal(err)
				}
				if _, err := client.Get(key); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationInlineSmallValues measures the §5.2 future-work
// optimization: sub-56 B values stored inside the enclave versus the
// normal pooled path, on the real store.
func BenchmarkAblationInlineSmallValues(b *testing.B) {
	for _, inline := range []bool{false, true} {
		name := "pooled"
		if inline {
			name = "inline"
		}
		b.Run(name, func(b *testing.B) {
			_, client := benchCluster(b, precursor.ServerConfig{InlineSmallValues: inline})
			value := make([]byte, 32) // below the 56 B control-data size
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				key := fmt.Sprintf("k%d", i%256)
				if err := client.Put(key, value); err != nil {
					b.Fatal(err)
				}
				if _, err := client.Get(key); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationShieldHashCache measures ShieldStore's EPC-versus-
// computation trade-off (§5.4): the full in-enclave bucket-hash cache
// against group-hash-only verification. The EPC footprint is reported as
// a metric alongside the op rate.
func BenchmarkAblationShieldHashCache(b *testing.B) {
	for _, cached := range []bool{true, false} {
		name := "cache-on"
		if !cached {
			name = "cache-off"
		}
		b.Run(name, func(b *testing.B) {
			platform, err := sgx.NewPlatform()
			if err != nil {
				b.Fatal(err)
			}
			server, err := shieldstore.NewServer(shieldstore.ServerConfig{
				Platform: platform, Buckets: 1 << 14, CacheBucketHashes: cached,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(server.Close)
			ct, st := shieldstore.NewPipe()
			go func() { _ = server.Serve(st) }()
			client, err := shieldstore.Connect(ct, platform.AttestationPublicKey(), server.Measurement())
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { _ = client.Close() })

			value := make([]byte, 256)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				key := fmt.Sprintf("k%d", i%512)
				if err := client.Put(key, value); err != nil {
					b.Fatal(err)
				}
				if _, err := client.Get(key); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(server.Stats().Enclave.EPCPages), "epc-pages")
		})
	}
}

// BenchmarkAblationPollingVsEcall models R2's transition avoidance: the
// same Precursor data path with a per-request ecall/ocall pair added —
// what a socket-triggered enclave design would pay.
func BenchmarkAblationPollingVsEcall(b *testing.B) {
	transition := 2 * 13000.0 / 3.7 // ecall+ocall in ns at 3.7 GHz
	for _, tc := range []struct {
		name  string
		extra float64
	}{
		{"polling", 0},
		{"per-request-ecall", transition},
	} {
		b.Run(tc.name, func(b *testing.B) {
			model := sim.DefaultCostModel()
			model.PrecursorGetFixedNs += tc.extra
			model.PrecursorPutFixedNs += tc.extra
			var kops float64
			for i := 0; i < b.N; i++ {
				r := sim.Run(sim.RunConfig{
					System: sim.Precursor, Clients: 50, ValueSize: 32,
					ReadRatio: 1, Entries: 600000, Seed: int64(i + 1),
					Duration: 80 * time.Millisecond, Model: &model,
				})
				kops = r.Kops
			}
			b.ReportMetric(kops, "Kops/s")
		})
	}
}

// BenchmarkSensitivityEPCSize re-runs the Figure 7 paging experiment
// (3 M entries) with the paper's pre-Ice-Lake 93 MiB EPC and Ice Lake's
// 188 MiB (§2.1): the larger EPC softens, but does not remove, the paging
// tail at this table size.
func BenchmarkSensitivityEPCSize(b *testing.B) {
	for _, tc := range []struct {
		name string
		epc  float64
	}{
		{"EPC-93MiB", 93 * (1 << 20)},
		{"EPC-188MiB-IceLake", 188 * (1 << 20)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			model := sim.DefaultCostModel()
			model.EPCBytes = tc.epc
			var r sim.RunResult
			for i := 0; i < b.N; i++ {
				r = sim.Run(sim.RunConfig{
					System: sim.Precursor, Clients: 4, ValueSize: 32,
					ReadRatio: 1, Entries: 3000000, Seed: int64(i + 1),
					Duration: 80 * time.Millisecond, Model: &model,
				})
			}
			b.ReportMetric(float64(r.Latency.Quantile(0.50))/1e3, "p50-µs")
			b.ReportMetric(float64(r.Latency.Quantile(0.99))/1e3, "p99-µs")
		})
	}
}

// BenchmarkAblationClientVsServerCrypto isolates the paper's core claim at
// a payload size where crypto dominates: identical transport, payload
// cryptography on the client (Precursor) vs in the enclave (server-enc).
func BenchmarkAblationClientVsServerCrypto(b *testing.B) {
	for _, tc := range []struct {
		name string
		sys  sim.System
	}{
		{"client-crypto", sim.Precursor},
		{"server-crypto", sim.ServerEnc},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var kops float64
			for i := 0; i < b.N; i++ {
				r := sim.Run(sim.RunConfig{
					System: tc.sys, Clients: 50, ValueSize: 4096,
					ReadRatio: 0.5, Entries: 600000, Seed: int64(i + 1),
					Duration: 80 * time.Millisecond,
				})
				kops = r.Kops
			}
			b.ReportMetric(kops, "Kops/s")
		})
	}
}
