package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"time"
)

// deployKind says how a workload's store is deployed.
type deployKind int

const (
	// deployInProc is one server on the in-process fabric with one
	// attested client connection.
	deployInProc deployKind = iota
	// deployReplicated is one replica group of two servers over the TCP
	// fabric with a durable value log, driven through the cluster client.
	deployReplicated
)

// workloadSpec is one benchmark workload: a deployment, a data set and a
// traffic mix. The four specs below are the contract later changes are
// measured against; see README.md for why each exists.
type workloadSpec struct {
	Name      string
	Why       string
	Deploy    deployKind
	Keys      int
	ValueSize int
	// Zipf draws keys from a scrambled zipfian with θ = zipfTheta; false
	// draws them uniformly.
	Zipf bool
	// ReadPct is the share of operations (of frames, when batching) that
	// are gets; the rest are puts.
	ReadPct int
	// Batch is the number of operations per Client.Batch frame; 0 sends
	// single-op frames.
	Batch int
	// Clients is the number of closed-loop client goroutines.
	Clients int
}

const zipfTheta = 0.99

var workloads = []workloadSpec{
	{
		Name:   "small_read",
		Why:    "32 B values, 95% gets, zipfian: per-op fixed cost (control AEAD, codecs, ring doorbell and poll, lookup) dominates and bytes are negligible",
		Deploy: deployInProc, Keys: 300_000, ValueSize: 32, Zipf: true, ReadPct: 95, Clients: 1,
	},
	{
		Name:   "large_mixed",
		Why:    "4 KiB values, 50% gets, uniform: per-byte cost (client cipher and MAC, slab and ring copies) dominates, with writes beside reads",
		Deploy: deployInProc, Keys: 64_000, ValueSize: 4096, ReadPct: 50, Clients: 1,
	},
	{
		Name:   "batch_mixed",
		Why:    "small_read's table in frames of 32 ops: one seal, doorbell and poll per 32 ops, so enclave apply, lookup and the batch codec dominate",
		Deploy: deployInProc, Keys: 300_000, ValueSize: 32, Zipf: true, ReadPct: 50, Batch: 32, Clients: 1,
	},
	{
		Name:   "replicated_durable",
		Why:    "1 KiB values, 50% gets, two replicas over TCP with a value log larger than its memory cache: quorum fan-out, pool, tcpfabric, group commit, read-through",
		Deploy: deployReplicated, Keys: 40_000, ValueSize: 1024, ReadPct: 50, Clients: 2,
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// runShape fixes how long a run measures. The defaults are the contract;
// -smoke shrinks everything so tests can drive all four deployments.
type runShape struct {
	Warmup  time.Duration
	Windows int
	Window  time.Duration
}

const (
	measuredWindows = 10
	// A traced invocation first measures an untraced reference, then the
	// traced windows, each window half as long as an untraced run's.
	traceRefWindows = 3
	traceWindows    = 4
	warmup          = 3 * time.Second
	// vlogMemoryCap is each replica's value-log memory cache; the
	// replicated data set (40 MiB) is larger on purpose.
	vlogMemoryCap = 16 << 20
	// vlogSegmentBytes is each replica's log segment size (see deploy.go).
	vlogSegmentBytes = 8 << 20
	// sampleKeys is how many keys are re-read after the measured phase.
	sampleKeys = 1000
)

// smoke returns the spec cut down for tests: 1 000 keys.
func (w workloadSpec) smoke() workloadSpec {
	w.Keys = 1000
	return w
}

// keyName is the store key of data-set index i. Key names do not depend
// on the seed, so the table layout is the same on every run.
func keyName(i int) string { return fmt.Sprintf("user%012d", i) }

// dataset is the expected state of every key, shared by a run's clients.
// Client c only ever touches the keys k ≡ c (mod clients), so the version
// slice needs no lock.
type dataset struct {
	spec     workloadSpec
	keys     []string
	versions []uint64
	// filler is seed-derived bytes values are cut from; a value is
	// version ‖ key index ‖ filler[k%fillerSlack:], so the expected bytes
	// of any (key, version) are known without storing them.
	filler []byte
}

const (
	valueHeader = 16
	fillerSlack = 256
)

func newDataset(spec workloadSpec, seed uint64) *dataset {
	d := &dataset{
		spec:     spec,
		keys:     make([]string, spec.Keys),
		versions: make([]uint64, spec.Keys),
		filler:   make([]byte, spec.ValueSize+fillerSlack),
	}
	for i := range d.keys {
		d.keys[i] = keyName(i)
	}
	rng := rand.New(rand.NewPCG(seed, 0x76616c7565)) // "value"
	for i := range d.filler {
		d.filler[i] = byte(rng.Uint32())
	}
	return d
}

// fill writes the value of key k at version ver into dst (len ValueSize).
func (d *dataset) fill(dst []byte, k int, ver uint64) {
	binary.LittleEndian.PutUint64(dst[0:8], ver)
	binary.LittleEndian.PutUint64(dst[8:16], uint64(k))
	copy(dst[valueHeader:], d.filler[k%fillerSlack:])
}

// check reports whether got is exactly the value of key k at version ver.
func (d *dataset) check(got []byte, k int, ver uint64) bool {
	if len(got) != d.spec.ValueSize {
		return false
	}
	if binary.LittleEndian.Uint64(got[0:8]) != ver || binary.LittleEndian.Uint64(got[8:16]) != uint64(k) {
		return false
	}
	off := k % fillerSlack
	return bytes.Equal(got[valueHeader:], d.filler[off:off+len(got)-valueHeader])
}

// mismatch describes a failed check for the error exit: the key and the
// head of both values.
func (d *dataset) mismatch(got []byte, k int, ver uint64) string {
	want := make([]byte, d.spec.ValueSize)
	d.fill(want, k, ver)
	head := func(b []byte) []byte {
		if len(b) > 24 {
			return b[:24]
		}
		return b
	}
	return fmt.Sprintf("key %s: expected version %d (%d bytes, head %x), got %d bytes, head %x",
		d.keys[k], ver, len(want), head(want), len(got), head(got))
}

// generator is one client's deterministic operation stream: the same
// (seed, client) always yields the same sequence of (get|put, key).
type generator struct {
	rng     *rand.Rand
	clients int
	client  int
	owned   int // keys this client owns: k = j*clients + client, j < owned
	readPct int
	zipf    *zipfian
	salt    uint64
}

func newGenerator(spec workloadSpec, seed uint64, client int) *generator {
	owned := (spec.Keys - client + spec.Clients - 1) / spec.Clients
	g := &generator{
		rng:     rand.New(rand.NewPCG(seed, uint64(client)+1)),
		clients: spec.Clients,
		client:  client,
		owned:   owned,
		readPct: spec.ReadPct,
		salt:    splitmix64(seed),
	}
	if spec.Zipf {
		g.zipf = newZipfian(owned, zipfTheta)
	}
	return g
}

// frameKeys draws the generator's next call: its kind, then one key index
// per slot of keys (one for a single op, the batch size for a frame).
func (g *generator) frameKeys(keys []int) (isGet bool) {
	isGet = int(g.rng.Uint32N(100)) < g.readPct
	for i := range keys {
		keys[i] = g.key()
	}
	return isGet
}

// key draws the data-set index of one operation's key.
func (g *generator) key() int {
	var j int
	if g.zipf != nil {
		// Scramble the rank so hot keys are spread over the key space
		// (and differ between seeds) instead of being the first few.
		rank := g.zipf.next(g.rng.Float64())
		j = int(splitmix64(uint64(rank)^g.salt) % uint64(g.owned))
	} else {
		j = g.rng.IntN(g.owned)
	}
	return j*g.clients + g.client
}

// sequenceHash folds the first n calls of a fresh generator into one
// number, for the determinism test.
func sequenceHash(spec workloadSpec, seed uint64, client, n int) uint64 {
	g := newGenerator(spec, seed, client)
	keys := make([]int, max(1, spec.Batch))
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < n; i++ {
		if g.frameKeys(keys) {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
		for _, k := range keys {
			binary.LittleEndian.PutUint64(buf[:], uint64(k))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// zipfian draws ranks 0..n-1 with probability ∝ 1/(rank+1)^θ, by the
// closed-form approximation of Gray et al. that YCSB uses (θ < 1).
type zipfian struct {
	n, alpha, eta float64
	zetan, half   float64
}

func newZipfian(n int, theta float64) *zipfian {
	var zetan float64
	for i := 1; i <= n; i++ {
		zetan += 1 / math.Pow(float64(i), theta)
	}
	zeta2 := 1 + math.Pow(0.5, theta)
	return &zipfian{
		n:     float64(n),
		alpha: 1 / (1 - theta),
		eta:   (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/zetan),
		zetan: zetan,
		half:  math.Pow(0.5, theta),
	}
}

// next maps a uniform u in [0,1) to a rank.
func (z *zipfian) next(u float64) int {
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+z.half {
		return 1
	}
	r := int(z.n * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if r >= int(z.n) {
		r = int(z.n) - 1
	}
	return r
}
