package precursor_test

// Documentation lint: every exported declaration in every non-test source
// file must carry a doc comment — deliverable (e)'s "doc comments on
// every public item", enforced mechanically.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"precursor"
	"precursor/internal/audit"
	"precursor/internal/fleet"
)

func TestAllExportedIdentifiersDocumented(t *testing.T) {
	var missing []string

	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		// Example mains need no per-symbol docs beyond the package comment.
		if file.Name.Name == "main" {
			return nil
		}
		for _, decl := range file.Decls {
			switch dd := decl.(type) {
			case *ast.FuncDecl:
				if dd.Name.IsExported() && dd.Doc == nil {
					missing = append(missing, loc(path, fset, dd.Pos(), "func "+dd.Name.Name))
				}
			case *ast.GenDecl:
				groupDoc := dd.Doc != nil
				for _, spec := range dd.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						if sp.Name.IsExported() && !groupDoc && sp.Doc == nil && sp.Comment == nil {
							missing = append(missing, loc(path, fset, sp.Pos(), "type "+sp.Name.Name))
						}
					case *ast.ValueSpec:
						for _, name := range sp.Names {
							if name.IsExported() && !groupDoc && sp.Doc == nil && sp.Comment == nil {
								missing = append(missing, loc(path, fset, sp.Pos(), "value "+name.Name))
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range missing {
		t.Errorf("undocumented exported identifier: %s", m)
	}
}

func loc(path string, fset *token.FileSet, pos token.Pos, what string) string {
	p := fset.Position(pos)
	return path + ":" + strconv.Itoa(p.Line) + " " + what
}

// TestDocsCoverDurableTier pins the operator documentation for the
// value-log subsystem: the design rationale, the server flag, and the
// metric families dashboards are built on. A rename in code without the
// matching doc update fails here, not in a user's terminal.
func TestDocsCoverDurableTier(t *testing.T) {
	for _, tc := range []struct {
		file    string
		phrases []string
	}{
		{"DESIGN.md", []string{
			"Trusted/untrusted storage split",
			"group commit",
			"index-only",
		}},
		{"README.md", []string{
			"-data-dir",
			"TestVlogCrashRecoveryZeroLostAcked",
			"TestVlogServesDatasetBeyondMemoryCap",
		}},
		{"OBSERVABILITY.md", []string{
			"srv_vlog_read",
			"precursor_vlog_segments",
			"precursor_vlog_group_commit_batch_avg",
			"precursor_vlog_read_throughs_total",
			"precursor_vlog_auth_failures_total",
			"precursor_vlog_gc_reclaimed_bytes_total",
			"precursor_seal_duration_seconds",
		}},
	} {
		data, err := os.ReadFile(tc.file)
		if err != nil {
			t.Errorf("read %s: %v", tc.file, err)
			continue
		}
		text := string(data)
		for _, phrase := range tc.phrases {
			if !strings.Contains(text, phrase) {
				t.Errorf("%s: missing %q", tc.file, phrase)
			}
		}
	}
}

// TestDocsCoverHeat pins the documentation for workload-heat
// telemetry: the metric families and debug endpoint, the
// skew-to-resharding operator workflow, the privacy guarantee (hashed
// ids only), and the user-facing flags. A rename in code without the
// matching doc update fails here.
func TestDocsCoverHeat(t *testing.T) {
	for _, tc := range []struct {
		file    string
		phrases []string
	}{
		{"README.md", []string{
			"-heat",
			"TestGates/heat",
			"gate heat overhead",
			"/debug/heat",
		}},
		{"OBSERVABILITY.md", []string{
			"precursor_heat_ops_total",
			"precursor_heat_range_ops_total",
			"precursor_heat_top1_share",
			"precursor_heat_batch_fill_total",
			"precursor_slowop_suppressed_total",
			"precursor_fleet_hottest_target",
			"precursor_fleet_heat_skew_max_mean",
			"precursor_build_info",
			"precursor_uptime_seconds",
			"hashed key ids only",
			"Skew-to-resharding workflow",
			"/debug/heat",
			"TestGates/heat",
			"gate heat overhead",
		}},
	} {
		data, err := os.ReadFile(tc.file)
		if err != nil {
			t.Errorf("read %s: %v", tc.file, err)
			continue
		}
		text := string(data)
		for _, phrase := range tc.phrases {
			if !strings.Contains(text, phrase) {
				t.Errorf("%s: missing %q", tc.file, phrase)
			}
		}
	}
}

// TestDocsCoverOverload pins the documentation for the
// overload-protection stack: the RETRY_LATER protocol section, the
// operator quickstart (drain, gate rows), and the shed/hedge/budget
// metric families and trace annotations. A rename in code without the
// matching doc update fails here.
func TestDocsCoverOverload(t *testing.T) {
	for _, tc := range []struct {
		file    string
		phrases []string
	}{
		{"PROTOCOL.md", []string{
			"Admission control: RETRY_LATER",
			"not an error",
			"never",
			"ErrUnconfirmed",
			"burn the oid",
			"retry budget",
			"draining",
		}},
		{"README.md", []string{
			"-drain-timeout",
			"TestGates/overload",
			"gate overload goodput",
			"HedgeReads",
			"TestOverloadChaosShedRecover",
		}},
		{"OBSERVABILITY.md", []string{
			"precursor_overload_shed_reads_total",
			"precursor_overload_shed_writes_total",
			"precursor_overload_draining",
			"precursor_overload_admitted_total",
			"precursor_overload_inflight",
			"precursor_overload_service_ewma_seconds",
			"precursor_cluster_hedges_launched_total",
			"precursor_cluster_hedges_won_total",
			"precursor_cluster_hedges_denied_total",
			"precursor_retry_budget_tokens",
			"precursor_retry_budget_granted_total",
			"precursor_retry_budget_denied_total",
			"shed read (overload)",
			"shed write (overload)",
			"hedge launched",
			"hedge won",
			"TestGates/overload",
			"gate overload goodput",
			"draining",
		}},
	} {
		data, err := os.ReadFile(tc.file)
		if err != nil {
			t.Errorf("read %s: %v", tc.file, err)
			continue
		}
		text := string(data)
		for _, phrase := range tc.phrases {
			if !strings.Contains(text, phrase) {
				t.Errorf("%s: missing %q", tc.file, phrase)
			}
		}
	}
}

// TestDocsCoverBatching pins the documentation for multi-op batch
// frames: the wire-format section, the user-facing quickstart and
// gate row, and the observability stages/metric families. A rename
// in code without the matching doc update fails here.
func TestDocsCoverBatching(t *testing.T) {
	for _, tc := range []struct {
		file    string
		phrases []string
	}{
		{"PROTOCOL.md", []string{
			"Batch frames (multi-op)",
			"burns the oid",
			"per-op results",
			"ErrUnconfirmed",
		}},
		{"README.md", []string{
			"TestGates/batch",
			"gate batch speedup",
			"A connection has one frame in flight; a `Pool` provides concurrency.",
			"precursor.BatchOp",
		}},
		{"OBSERVABILITY.md", []string{
			"cli_batch",
			"srv_batch",
			"precursor_batches_total",
			"precursor_batched_ops_total",
		}},
	} {
		data, err := os.ReadFile(tc.file)
		if err != nil {
			t.Errorf("read %s: %v", tc.file, err)
			continue
		}
		text := string(data)
		for _, phrase := range tc.phrases {
			if !strings.Contains(text, phrase) {
				t.Errorf("%s: missing %q", tc.file, phrase)
			}
		}
	}
}

// TestDocsCoverTracing pins the documentation for end-to-end trace
// correlation: the sealed trace-context wire section with its AD
// coverage note, the tail-sampling and exemplar semantics, the
// stitching endpoints/flags, and the CLI workflow. A rename in code
// without the matching doc update fails here.
func TestDocsCoverTracing(t *testing.T) {
	for _, tc := range []struct {
		file    string
		phrases []string
	}{
		{"PROTOCOL.md", []string{
			"Trace context",
			"inside the sealed control plaintext",
			"AD coverage",
			"Request and reply seals both use the base additional",
			"precursor_trace_context_errors_total",
		}},
		{"README.md", []string{
			"-trace-ring",
			"-tail-sample",
			"precursor-cli trace",
		}},
		{"OBSERVABILITY.md", []string{
			"End-to-end trace correlation",
			"timebase_unix_nano",
			"?raw=1",
			"precursor-cli trace",
			"Tail sampling",
			"precursor_traces_retained_total",
			"precursor_traces_discarded_total",
			"precursor_trace_context_errors_total",
			"trace_id",
			"-tail-sample",
			"-trace-ring",
		}},
	} {
		data, err := os.ReadFile(tc.file)
		if err != nil {
			t.Errorf("read %s: %v", tc.file, err)
			continue
		}
		text := string(data)
		for _, phrase := range tc.phrases {
			if !strings.Contains(text, phrase) {
				t.Errorf("%s: missing %q", tc.file, phrase)
			}
		}
	}
}

// TestDocsCoverMemory pins the documentation for memory per stored byte:
// the pool and enclave series a server exports, their fleet sums, and the
// DESIGN.md section that states the class-table rule and the per-key
// budget. A rename in code without the matching doc update fails here.
func TestDocsCoverMemory(t *testing.T) {
	for _, tc := range []struct {
		file    string
		phrases []string
	}{
		{"OBSERVABILITY.md", []string{
			"precursor_pool_bytes_reserved",
			"precursor_pool_bytes_in_use",
			"precursor_pool_bytes_requested",
			"precursor_enclave_epc_pages",
			"precursor_fleet_pool_bytes_reserved",
			"precursor_fleet_pool_bytes_requested",
			"TestMemoryPerStoredByte",
		}},
		{"DESIGN.md", []string{
			"### Memory per stored byte",
			"classes per doubling",
			"PoolBytesRequested",
			"Enclave.Reserve",
			"TestMemoryPerStoredByte",
		}},
		{"metrics.go", []string{
			`"precursor_pool_bytes_reserved"`,
			`"precursor_pool_bytes_in_use"`,
			`"precursor_pool_bytes_requested"`,
		}},
		{"internal/fleet/fleet.go", []string{
			`case "precursor_pool_bytes_reserved"`,
			`case "precursor_pool_bytes_requested"`,
			`"precursor_fleet_pool_bytes_reserved"`,
			`"precursor_fleet_pool_bytes_requested"`,
		}},
	} {
		data, err := os.ReadFile(tc.file)
		if err != nil {
			t.Errorf("read %s: %v", tc.file, err)
			continue
		}
		text := string(data)
		for _, phrase := range tc.phrases {
			if !strings.Contains(text, phrase) {
				t.Errorf("%s: missing %q", tc.file, phrase)
			}
		}
	}
}

// TestDocsCoverWaitingPath pins the documentation of the waiting path: the
// counters that show it, their export, and the DESIGN.md and PROTOCOL.md
// text that says when a reply goes inline and what the doorbell word is.
func TestDocsCoverWaitingPath(t *testing.T) {
	for file, phrases := range map[string][]string{
		"OBSERVABILITY.md": {
			"precursor_replies_inline_total", "precursor_replies_queued_total",
			"precursor_poll_spins_total", "precursor_poll_yields_total", "precursor_poll_sleeps_total",
			"RepliesInline", "RepliesQueued", "PollSpins", "PollYields", "PollSleeps",
		},
		"metrics.go": {
			`"precursor_replies_inline_total"`, `"precursor_replies_queued_total"`,
			`"precursor_poll_spins_total"`, `"precursor_poll_yields_total"`, `"precursor_poll_sleeps_total"`,
		},
		"DESIGN.md": {
			"### The waiting path", "doorbell", "PostBounded", "replyCreditWait", "RWMutex",
		},
		"PROTOCOL.md": {"doorbell word", "inline"},
	} {
		pinPhrases(t, file, phrases)
	}
}

// TestDocsCoverTCPWaitingPath pins the documentation of the TCP fabric's
// half of the waiting path: the park and fabric counters, their export,
// the ack-request bit and the write bound in PROTOCOL.md, and the DESIGN.md
// subsection with its ablation.
func TestDocsCoverTCPWaitingPath(t *testing.T) {
	counters := []string{
		"precursor_poll_parks_woken_total", "precursor_poll_parks_capped_total",
		"precursor_fabric_frames_written_total", "precursor_fabric_frames_read_total",
		"precursor_fabric_reads_total", "precursor_fabric_acks_sent_total",
	}
	quoted := make([]string, len(counters))
	for i, c := range counters {
		quoted[i] = `"` + c + `"`
	}
	for file, phrases := range map[string][]string{
		"OBSERVABILITY.md": append(counters, "PollParksWoken", "PollParksCapped", "Fabric.AcksSent", "ParkCap"),
		"metrics.go":       quoted,
		"DESIGN.md":        {"### The TCP half of the waiting path", "ablation", "ackEvery", "MemoryRegion.Arm", "bufio.Reader"},
		"PROTOCOL.md":      {"ack-request bit", "in op-id order", "always NAKed", "125–250 ms", "refused", "park"},
	} {
		pinPhrases(t, file, phrases)
	}
}

// pinPhrases fails t for each phrase file does not contain.
func pinPhrases(t *testing.T, file string, phrases []string) {
	t.Helper()
	data, err := os.ReadFile(file)
	if err != nil {
		t.Errorf("read %s: %v", file, err)
		return
	}
	for _, phrase := range phrases {
		if !strings.Contains(string(data), phrase) {
			t.Errorf("%s: missing %q", file, phrase)
		}
	}
}

// TestFuzzTargetsListed keeps `make fuzz` and CI's "Fuzz smoke" steps from
// drifting apart again: every Fuzz function in the tree must be named in
// both lists. benchmark/ is its own module, out of reach of the Makefile's
// ./internal/<pkg> paths.
func TestFuzzTargetsListed(t *testing.T) {
	fuzzFunc := regexp.MustCompile(`(?m)^func (Fuzz[A-Z]\w*)\(\w+ \*testing\.F\)`)
	var targets []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || path == "benchmark") {
			return filepath.SkipDir
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range fuzzFunc.FindAllSubmatch(src, -1) {
			targets = append(targets, string(m[1]))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) == 0 {
		t.Fatal("found no fuzz target; the walk is broken")
	}
	for _, file := range []string{"Makefile", ".github/workflows/ci.yml"} {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		// A name ends at a space, a quote, a backslash-newline, ';' or '$'.
		words := strings.FieldsFunc(string(data), func(r rune) bool {
			return strings.ContainsRune(" \t\n\\'\";:^$", r)
		})
		for _, target := range targets {
			if !slices.Contains(words, target) {
				t.Errorf("%s does not run %s", file, target)
			}
		}
	}
}

// goTestFlags are go test's own flags the CI and Makefile lines use, each
// with whether it takes the next word as its value.
var goTestFlags = map[string]bool{
	"-race": false, "-v": false, "-short": false, "-benchmem": false,
	"-run": true, "-count": true, "-timeout": true, "-bench": true,
	"-benchtime": true, "-fuzz": true, "-fuzztime": true, "-cpu": true,
}

// TestCIFlagsFollowPackages: go test hands the first flag it does not know,
// and every word after it, to the test binary. A package path behind such a
// flag (-chaosops=N) is then no package at all: go test tests the current
// directory's, which fails on the unknown flag. Every go test line in
// ci.yml and the Makefile must name its packages before any such flag.
func TestCIFlagsFollowPackages(t *testing.T) {
	for _, file := range []string{".github/workflows/ci.yml", "Makefile"} {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		lines := 0
		for _, line := range strings.Split(strings.ReplaceAll(string(data), "\\\n", " "), "\n") {
			words := shellWords(line)
			for i := 0; i+1 < len(words); i++ {
				if words[i] != "go" && words[i] != "$(GO)" || words[i+1] != "test" {
					continue
				}
				lines++
				unknown := ""
				for j := i + 2; j < len(words) && !strings.ContainsAny(words[j], ";&|"); j++ {
					w := words[j]
					name, _, inline := strings.Cut(w, "=")
					switch value, own := goTestFlags[name]; {
					case strings.HasPrefix(w, "-") && !own:
						if unknown == "" {
							unknown = w
						}
					case strings.HasPrefix(w, "-"):
						if value && !inline {
							j++
						}
					case unknown != "" && (w == "." || strings.HasPrefix(w, "./")):
						t.Errorf("%s: %q comes before package %s in %q", file, unknown, w, strings.TrimSpace(line))
					}
				}
			}
		}
		if lines == 0 {
			t.Errorf("%s: found no go test line; the scan is broken", file)
		}
	}
}

// shellWords splits a shell command line into words, a quoted span kept
// whole without its quotes, with each of ; & | a word of its own.
func shellWords(line string) []string {
	var words []string
	var w strings.Builder
	var quote rune
	inWord := false
	flush := func() {
		if inWord {
			words = append(words, w.String())
			w.Reset()
			inWord = false
		}
	}
	for _, r := range line {
		switch {
		case quote != 0:
			if r == quote {
				quote = 0
			} else {
				w.WriteRune(r)
			}
		case r == '\'' || r == '"':
			quote, inWord = r, true
		case r == ' ' || r == '\t':
			flush()
		case r == ';' || r == '&' || r == '|':
			flush()
			words = append(words, string(r))
		default:
			w.WriteRune(r)
			inWord = true
		}
	}
	flush()
	return words
}

// TestRaceExemptionOnlyOnTheDMACopy: the registered-memory data path's one
// byte copy, dma in internal/rdma/mr.go, is the only code the race detector
// does not see — //go:norace over the runtime's memmove, pulled in by
// linkname. Anywhere else either directive would hide a real race, so any
// //go:norace or //go:linkname outside those two declarations fails the
// test, and so does their absence: the walk would then prove nothing.
func TestRaceExemptionOnlyOnTheDMACopy(t *testing.T) {
	const home = "internal/rdma/mr.go"
	allowed := map[string]string{ // directive → the function it must sit on
		"//go:norace":                           "dma",
		"//go:linkname memmove runtime.memmove": "memmove",
	}
	found := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		docOf := map[*ast.CommentGroup]string{}
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Doc != nil {
				docOf[fn.Doc] = fn.Name.Name
			}
		}
		for _, group := range file.Comments {
			for _, c := range group.List {
				text := strings.TrimSpace(c.Text)
				if !strings.HasPrefix(text, "//go:norace") && !strings.HasPrefix(text, "//go:linkname") {
					continue
				}
				if fn, ok := allowed[text]; ok && filepath.ToSlash(path) == home && docOf[group] == fn {
					found[text] = true
					continue
				}
				t.Errorf("%s: %s outside the DMA copy", loc(path, fset, c.Pos(), ""), text)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for text, fn := range allowed {
		if !found[text] {
			t.Errorf("%s: %s no longer sits on %s", home, text, fn)
		}
	}
}

// TestDocsCoverEveryMetricFamily: every metric family a fully attached
// endpoint exports is named in OBSERVABILITY.md — server counters with a
// value log, an overload gate, a seal and an audit log; a cluster client
// with its client and cluster tracers and its routing heat; the server's
// tracer and heat; and /fleet aggregating the endpoint itself. A family
// added to the code without a line in the reference fails here.
func TestDocsCoverEveryMetricFamily(t *testing.T) {
	doc, err := os.ReadFile("OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	auditLog := precursor.NewAuditLog(64)
	srvTracer := precursor.NewTracer(precursor.TracerConfig{Side: precursor.SideServer})
	srvHeat := precursor.NewHeatCollector(precursor.HeatConfig{})
	cs, err := precursor.ServeReplicatedCluster(1, 1, precursor.ServerConfig{
		Workers: 1, PollInterval: 50 * time.Microsecond, DataDir: t.TempDir(),
		Overload: precursor.NewOverloadGate(precursor.OverloadGateConfig{}),
		Tracer:   srvTracer, Heat: srvHeat, Audit: auditLog,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cs.Close)
	cliTracer := precursor.NewTracer(precursor.TracerConfig{Side: precursor.SideClient})
	routeHeat := precursor.NewHeatCollector(precursor.HeatConfig{})
	cc, err := precursor.DialReplicatedCluster(cs.GroupSpecs(), precursor.ClusterConfig{
		Timeout: 5 * time.Second, Tracer: cliTracer,
		ClusterTracer: precursor.NewTracer(precursor.TracerConfig{Side: precursor.SideClient}),
		Audit:         auditLog, Heat: routeHeat,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cc.Close() })
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("doc%02d", i)
		if err := cc.Put(key, []byte("v")); err != nil {
			t.Fatal(err)
		}
		if _, err := cc.Get(key); err != nil {
			t.Fatal(err)
		}
	}
	_, _ = cc.Get("absent")
	server := cs.Groups[0][0].Server
	if err := server.Seal(io.Discard); err != nil {
		t.Fatal(err)
	}
	auditLog.Add(audit.Record{Kind: audit.KindReplay, Detail: "one event, so the per-kind family is exported"})

	ms, err := precursor.ServeMetrics(server, "127.0.0.1:0",
		precursor.WithTracer("server", srvTracer), precursor.WithTracer("client", cliTracer),
		precursor.WithHeat("server", srvHeat), precursor.WithHeat("client", routeHeat),
		precursor.WithAudit(auditLog))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ms.Close() })
	ms.TrackCluster(cc)
	agg, err := fleet.New(fleet.Config{Targets: []fleet.Target{{Name: "self", URL: "http://" + ms.Addr() + "/metrics"}}})
	if err != nil {
		t.Fatal(err)
	}
	fms, err := precursor.ServeClusterMetrics(nil, "127.0.0.1:0", precursor.WithFleet(agg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = fms.Close() })
	// Two scrapes: rates and anomaly baselines need a previous sample.
	agg.ScrapeOnce()
	agg.ScrapeOnce()

	families := map[string]bool{}
	for _, url := range []string{"http://" + ms.Addr() + "/metrics", "http://" + fms.Addr() + "/fleet"} {
		for _, line := range strings.Split(string(httpGet(t, url, http.StatusOK)), "\n") {
			if f := strings.Fields(line); len(f) >= 3 && f[0] == "#" && f[1] == "TYPE" {
				families[f[2]] = true
			}
		}
	}
	if len(families) < 100 {
		t.Fatalf("only %d families exported: the endpoint is not fully attached", len(families))
	}
	var missing []string
	for name := range families {
		if !regexp.MustCompile(`\b` + name + `\b`).Match(doc) {
			missing = append(missing, name)
		}
	}
	slices.Sort(missing)
	for _, name := range missing {
		t.Errorf("OBSERVABILITY.md does not name the exported family %s", name)
	}
	t.Logf("%d families exported, %d undocumented", len(families), len(missing))
}

// TestCIStepNamesParse keeps the workflow files valid YAML: a step name
// written as a plain (unquoted) scalar ends its mapping value at ": " and
// starts a comment at " #", so such a name breaks the whole file, and CI
// with it. Every `name:` value holding either must be quoted.
func TestCIStepNamesParse(t *testing.T) {
	if bad := plainNameFaults("- name: Gate table: tracing\n  name: \"Quoted: fine\"\n- name: Heat #2\n"); len(bad) != 2 {
		t.Fatalf("the check found %q in a sample with two faulty names", bad)
	}
	files, err := filepath.Glob(".github/workflows/*.yml")
	if err != nil || len(files) == 0 {
		t.Fatalf("no workflow files: %v", err)
	}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, fault := range plainNameFaults(string(data)) {
			t.Errorf("%s:%s", file, fault)
		}
	}
}

// plainNameFaults lists the lines of a YAML text whose `name:` value is a
// plain scalar containing ": " or " #".
func plainNameFaults(yaml string) []string {
	var faults []string
	for i, line := range strings.Split(yaml, "\n") {
		value, ok := strings.CutPrefix(strings.TrimPrefix(strings.TrimSpace(line), "- "), "name:")
		value = strings.TrimSpace(value)
		if !ok || value == "" || strings.ContainsRune(`"'|>`, rune(value[0])) {
			continue
		}
		if strings.Contains(value, ": ") || strings.Contains(value, " #") {
			faults = append(faults, fmt.Sprintf("%d: step name %q is an unquoted scalar holding \": \" or \" #\"", i+1, value))
		}
	}
	return faults
}
