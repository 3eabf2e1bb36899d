package bench

import (
	"fmt"
	"strings"
	"time"

	"precursor/internal/core"
	"precursor/internal/rdma"
	"precursor/internal/sgx"
	"precursor/internal/shieldstore"
	"precursor/internal/ycsb"
)

// Table1Phases are the insert counts of Table 1.
var Table1Phases = []int{0, 1, 100000}

// EPCRow is one cell of Table 1: a system's enclave working set after a
// number of 32 B-value inserts.
type EPCRow struct {
	System string
	Keys   int
	Pages  int
	MiB    float64
}

// Table1 measures real enclave working sets — unlike the throughput
// figures this is functional, not modelled: it builds both stores, drives
// inserts through their full protocol stacks, and reads the simulated
// EPC's page accounting (the sgx-perf equivalent).
func Table1() ([]EPCRow, error) {
	var rows []EPCRow

	pre, err := table1Precursor()
	if err != nil {
		return nil, fmt.Errorf("precursor phase: %w", err)
	}
	rows = append(rows, pre...)

	ss, err := table1ShieldStore()
	if err != nil {
		return nil, fmt.Errorf("shieldstore phase: %w", err)
	}
	return append(rows, ss...), nil
}

func table1Precursor() ([]EPCRow, error) {
	platform, err := sgx.NewPlatform()
	if err != nil {
		return nil, err
	}
	fabric := rdma.NewFabric()
	srvDev, err := fabric.NewDevice("server")
	if err != nil {
		return nil, err
	}
	server, err := core.NewServer(srvDev, core.ServerConfig{
		Platform: platform, Workers: 4, PollInterval: time.Microsecond,
	})
	if err != nil {
		return nil, err
	}
	defer server.Close()

	cliDev, err := fabric.NewDevice("client")
	if err != nil {
		return nil, err
	}
	cliQP, srvQP := fabric.ConnectRC(cliDev, srvDev)
	done := make(chan error, 1)
	go func() {
		_, err := server.HandleConnection(srvQP)
		done <- err
	}()
	client, err := core.Connect(core.ClientConfig{
		Conn: cliQP, Device: cliDev,
		PlatformKey: platform.AttestationPublicKey(),
		Measurement: server.Measurement(),
		Timeout:     30 * time.Second,
	})
	if err != nil {
		return nil, err
	}
	if err := <-done; err != nil {
		return nil, err
	}
	defer client.Close()

	var rows []EPCRow
	value := make([]byte, 32)
	inserted := 0
	for _, phase := range Table1Phases {
		for inserted < phase {
			if err := client.Put(ycsb.Key(inserted), value); err != nil {
				return nil, fmt.Errorf("insert %d: %w", inserted, err)
			}
			inserted++
		}
		st := server.Enclave().Stats()
		rows = append(rows, EPCRow{System: "precursor", Keys: phase, Pages: st.EPCPages, MiB: st.WorkingSetMiB()})
	}
	return rows, nil
}

func table1ShieldStore() ([]EPCRow, error) {
	platform, err := sgx.NewPlatform()
	if err != nil {
		return nil, err
	}
	// The default (statically allocated) geometry, as deployed.
	server, err := shieldstore.NewServer(shieldstore.ServerConfig{
		Platform: platform, CacheBucketHashes: true,
	})
	if err != nil {
		return nil, err
	}
	defer server.Close()

	ct, st := shieldstore.NewPipe()
	go func() { _ = server.Serve(st) }()
	client, err := shieldstore.Connect(ct, platform.AttestationPublicKey(), server.Measurement())
	if err != nil {
		return nil, err
	}
	defer client.Close()

	var rows []EPCRow
	value := make([]byte, 32)
	inserted := 0
	for _, phase := range Table1Phases {
		for inserted < phase {
			if err := client.Put(ycsb.Key(inserted), value); err != nil {
				return nil, fmt.Errorf("insert %d: %w", inserted, err)
			}
			inserted++
		}
		st := server.Enclave().Stats()
		rows = append(rows, EPCRow{System: "shieldstore", Keys: phase, Pages: st.EPCPages, MiB: st.WorkingSetMiB()})
	}
	return rows, nil
}

// RenderTable1 formats Table 1.
func RenderTable1(rows []EPCRow) string {
	var b strings.Builder
	b.WriteString("Table 1: EPC working set vs inserted keys (32B values)\n")
	fmt.Fprintf(&b, "%-14s %-12s %-10s %-10s\n", "system", "keys", "pages", "MiB")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %-12d %-10d %-10.1f\n", r.System, r.Keys, r.Pages, r.MiB)
	}
	return b.String()
}
