# Precursor reproduction — common workflows.

GO ?= go

.PHONY: all build vet test fallback race bench benchmark allocgate loc figures artifacts examples fuzz clean

all: build vet test fallback

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The payload kernels' generic paths — the Salsa20 core and the MAC keyed
# through crypto/aes: the purego build's tests and kernel benchmarks, and
# vet (asmdecl included) of the package on an architecture without the
# AVX2 and AES-NI assembly.
fallback:
	$(GO) test ./internal/cryptox/ -tags purego
	$(GO) test ./internal/cryptox/ -tags purego -run '^$$' -bench 'Salsa20|PayloadSeal' -benchtime 1x
	GOARCH=arm64 $(GO) vet ./internal/cryptox/

race:
	$(GO) test -race ./...

# One testing.B benchmark per paper table/figure, plus ablations.
bench:
	$(GO) test -bench=. -benchmem ./...

# The closed-loop benchmark of the real op path (BENCHMARK.json): the four
# workloads in turn, end-to-end metrics.
benchmark:
	bash benchmark/run.sh -all

# Allocation gates (run without -race): zero-alloc codecs and sketches,
# the payload-cipher budget, the per-layer budgets of the TCP fabric and
# the value log, the whole-process single-op budget on a bare connection,
# through a Pool and through an R=2 cluster client, and the live heap per
# stored byte across value sizes (printed as a table).
allocgate:
	PRECURSOR_ALLOC_GATE=1 $(GO) test ./internal/wire/ ./internal/cryptox/ ./internal/heat/ ./internal/rdma/ ./internal/vlog/ ./internal/core/ . \
		-run 'ZeroAlloc|AllocBudget|MemoryPerStoredByte' -count=1 -v

# Non-test Go lines of the op-path packages, and their sum: the number
# ROADMAP aim 2 tracks — and the exported-method count of the three
# client-stack types, the API surface the same aim tracks. One fixed
# command, so every PR quotes the same counts. The sum is a ratchet: the
# target fails above LOC_CEILING, the sum measured by the last PR that
# lowered it. A PR that must raise it edits the number in its own diff.
LOC_CEILING = 7245
loc:
	@core=$$(cat $$(ls internal/core/*.go | grep -v _test.go) | wc -l); \
	cluster=$$(cat $$(ls internal/cluster/*.go | grep -v _test.go) | wc -l); \
	pool=$$(cat pool.go | wc -l); \
	sum=$$((core + cluster + pool)); \
	printf 'internal/core    %5d\ninternal/cluster %5d\npool.go          %5d\nsum              %5d  (ceiling %d)\n' \
		$$core $$cluster $$pool $$sum $(LOC_CEILING); \
	methods() { cat $$(ls $$1 | grep -v _test.go) | grep -cE "^func \([a-z]+ \*$$2\) [A-Z]"; }; \
	printf 'exported methods: core.Client %d, Pool %d, cluster.Client %d\n' \
		$$(methods 'internal/core/*.go' Client) $$(methods pool.go Pool) $$(methods 'internal/cluster/*.go' Client); \
	if [ $$sum -gt $(LOC_CEILING) ]; then \
		echo "op-path packages grew past the ceiling: $$sum > $(LOC_CEILING) non-test lines"; exit 1; \
	fi

# Text tables for every figure and table of the evaluation.
figures:
	$(GO) run ./cmd/precursor-bench -all

# Figure SVGs + CSVs under ./out.
artifacts:
	mkdir -p out
	$(GO) run ./cmd/precursor-bench -all -svg out -format csv > out/results.csv

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/multitenant
	$(GO) run ./examples/sealrestore
	$(GO) run ./examples/twittercache
	$(GO) run ./examples/netdeploy

# Short fuzz pass over every fuzz target, the list CI's "Fuzz smoke"
# steps run: package and anchored target name, 20 s each.
FUZZ_TARGETS = \
	wire:FuzzDecodeRequest wire:FuzzDecodeResponse wire:FuzzDecodeRequestControl \
	wire:FuzzDecodeResponseControl wire:FuzzBatchFrame \
	sgx:FuzzVerifyQuote sgx:FuzzClientHandshakeComplete sgx:FuzzRespondHandshake \
	core:FuzzRestore vlog:FuzzSegmentReplay audit:FuzzAuditChain \
	cryptox:FuzzSalsa20MatchesReference cryptox:FuzzCMACMatchesReference \
	cryptox:FuzzPayloadSealMatchesReference cryptox:FuzzAESBlockMatchesStdlib \
	hashtable:FuzzTableMatchesMap
fuzz:
	@set -e; for t in $(FUZZ_TARGETS); do \
		echo "fuzz internal/$${t%%:*} $${t##*:}"; \
		$(GO) test ./internal/$${t%%:*}/ -fuzz "^$${t##*:}$$" -fuzztime 20s -run '^$$'; \
	done

clean:
	$(GO) clean -testcache
