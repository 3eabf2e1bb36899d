package vlog

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"
)

// The log encodes every record into one buffer it owns and recycles its
// group-commit channels. These tests pin what that must never change:
// each record's bytes, wherever and whenever it is read back.

// placedMeta is the sealed-metadata stand-in of these tests: 24 bytes that
// name the record's placement and sequence, so a record sealed for one
// placement and written at another is caught.
func placedMeta(dst []byte, ptr Ptr, seq uint64) ([]byte, error) {
	dst = binary.LittleEndian.AppendUint32(dst, ptr.Segment)
	dst = binary.LittleEndian.AppendUint64(dst, ptr.Offset)
	dst = binary.LittleEndian.AppendUint32(dst, ptr.Length)
	return binary.LittleEndian.AppendUint64(dst, seq), nil
}

const placedMetaLen = 24

// written is what one append handed the log and got back.
type written struct {
	seq     uint64
	key     string
	payload []byte
}

func (w written) check(ptr Ptr, rec Record) error {
	meta, _ := placedMeta(nil, ptr, w.seq)
	switch {
	case rec.Seq != w.seq:
		return fmt.Errorf("%v: seq %d, want %d", ptr, rec.Seq, w.seq)
	case string(rec.Key) != w.key:
		return fmt.Errorf("%v: key %q, want %q", ptr, rec.Key, w.key)
	case !bytes.Equal(rec.Meta, meta):
		return fmt.Errorf("%v: metadata sealed for another placement", ptr)
	case !bytes.Equal(rec.Payload, w.payload):
		return fmt.Errorf("%v (key %q): payload differs", ptr, w.key)
	}
	return nil
}

func TestConcurrentAppendersOwnTheirBytes(t *testing.T) {
	for _, fsName := range []string{"memfs", "osfs"} {
		t.Run(fsName, func(t *testing.T) {
			// Segments of several scan windows, so replay and iteration
			// refill theirs mid-record.
			cfg := Config{Dir: t.TempDir(), SegmentBytes: 3 * segmentWindow}
			if fsName == "memfs" {
				cfg.FS = NewMemFS(1)
			}
			l, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			const appenders, each = 4, 40
			// Sizes on both sides of the retention bound, so the record
			// buffer is dropped and regrown between small records, and one
			// record larger than a scan window.
			sizes := []int{0, 1, 100, 1024, 5000, maxRetainedRecord + 1, 3000, segmentWindow + 5}

			var mu sync.Mutex
			all := make(map[Ptr]written)
			note := func(ptr Ptr, w written) {
				mu.Lock()
				all[ptr] = w
				mu.Unlock()
			}
			var wg sync.WaitGroup
			for a := 0; a < appenders; a++ {
				wg.Add(1)
				go func(a int) {
					defer wg.Done()
					for i := 0; i < each; i++ {
						w := written{key: fmt.Sprintf("appender-%d-key-%03d", a, i)}
						w.payload = bytes.Repeat([]byte{byte(a*each + i)}, sizes[(a+i)%len(sizes)])
						ptr, seq, err := l.AppendSealed([]byte(w.key), w.payload, false, placedMetaLen, 0, placedMeta)
						if err != nil {
							t.Errorf("append %s: %v", w.key, err)
							return
						}
						w.seq = seq
						note(ptr, w)
					}
				}(a)
			}
			// The GC relocation path runs beside them: records already
			// durable are read back and re-appended under their sequence.
			stop := make(chan struct{})
			relocated := make(chan int, 1)
			go func() {
				n := 0
				defer func() { relocated <- n }()
				for {
					select {
					case <-stop:
						return
					default:
					}
					mu.Lock()
					var ptr Ptr
					var w written
					for ptr, w = range all {
						break
					}
					mu.Unlock()
					if !ptr.Valid() {
						runtime.Gosched() // nothing durable yet
						continue
					}
					rec, err := l.ReadAt(ptr)
					if err != nil {
						t.Errorf("relocation read %v: %v", ptr, err)
						return
					}
					moved, _, err := l.AppendSealed(rec.Key, rec.Payload, false, placedMetaLen, rec.Seq, placedMeta)
					if err != nil {
						t.Errorf("relocate %v: %v", ptr, err)
						return
					}
					note(moved, w)
					n++
				}
			}()
			wg.Wait()
			close(stop)
			if n := <-relocated; n == 0 {
				t.Error("no relocation ran beside the appenders")
			}
			if t.Failed() {
				return
			}

			for ptr, w := range all {
				rec, err := l.ReadAt(ptr)
				if err != nil {
					t.Fatalf("read %v: %v", ptr, err)
				}
				if err := w.check(ptr, rec); err != nil {
					t.Error(err)
				}
			}
			iterated := 0
			for _, seg := range l.Segments() {
				if err := l.IterateSegment(seg.ID, func(ptr Ptr, rec Record) error {
					iterated++
					return all[ptr].check(ptr, rec)
				}); err != nil {
					t.Errorf("iterate segment %d: %v", seg.ID, err)
				}
			}
			if iterated != len(all) {
				t.Errorf("iteration visited %d records, %d were appended", iterated, len(all))
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}

			// The same directory, replayed: exactly the records appended,
			// byte for byte, at the placements the appenders were told.
			l2, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			seen := 0
			if _, err := l2.Replay(func(ptr Ptr, rec Record) error {
				w, ok := all[ptr]
				if !ok {
					return fmt.Errorf("replay found a record nobody appended at %v", ptr)
				}
				seen++
				return w.check(ptr, rec)
			}); err != nil {
				t.Fatal(err)
			}
			if seen != len(all) {
				t.Errorf("replay visited %d records, %d were appended", seen, len(all))
			}
		})
	}
}

// TestConcurrentWalksOwnTheirWindows: segment walks reuse the log's window
// buffer, and walks at once — two compaction passes, say — never share one:
// each sees every record of every segment byte for byte, however the walks
// interleave (run under -race, a shared window is also a reported race).
func TestConcurrentWalksOwnTheirWindows(t *testing.T) {
	l, err := Open(Config{Dir: "/walks", FS: NewMemFS(1), SegmentBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	payloads := map[Ptr][]byte{}
	for i := 0; i < 300; i++ {
		payload := bytes.Repeat([]byte{byte(i)}, 700+i)
		ptr, _ := appendOne(t, l, fmt.Sprintf("key-%03d", i), "m", string(payload), false)
		payloads[ptr] = payload
	}
	segs := l.Segments()
	if len(segs) < 3 {
		t.Fatalf("%d segments, want several to walk", len(segs))
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				seen := 0
				for _, seg := range segs {
					if err := l.IterateSegment(seg.ID, func(ptr Ptr, rec Record) error {
						seen++
						if !bytes.Equal(rec.Payload, payloads[ptr]) {
							return fmt.Errorf("%v: payload differs", ptr)
						}
						return nil
					}); err != nil {
						t.Error(err)
						return
					}
				}
				if seen != len(payloads) {
					t.Errorf("a walk saw %d records, %d were appended", seen, len(payloads))
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestVlogAppendAllocBudget pins the log's own cost per durable append on
// MemFS, group commit included: what is left is MemFS growing its file and
// a segment rotation every thousandth append.
// Run without -race (PRECURSOR_ALLOC_GATE pattern, `make allocgate`).
func TestVlogAppendAllocBudget(t *testing.T) {
	if os.Getenv("PRECURSOR_ALLOC_GATE") == "" {
		t.Skip("set PRECURSOR_ALLOC_GATE=1 to enforce the value-log allocation budget")
	}
	const budget = 1.0
	l, err := Open(Config{Dir: "alloc", FS: NewMemFS(1), SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	key, payload := []byte("user000000000001"), make([]byte, 1024)
	meta := make([]byte, 96)
	shapes := []struct {
		name   string
		append func() error
	}{
		{"AppendSealed", func() error {
			_, _, err := l.AppendSealed(key, payload, false, placedMetaLen, 0, placedMeta)
			return err
		}},
		{"Append", func() error {
			_, _, err := l.Append(key, payload, false, len(meta), func(Ptr, uint64) ([]byte, error) { return meta, nil })
			return err
		}},
	}
	for _, s := range shapes {
		var failed error
		run := func() {
			if err := s.append(); err != nil {
				failed = err
			}
		}
		for i := 0; i < 100; i++ {
			run()
		}
		// Counted from MemStats: testing.AllocsPerRun rounds down.
		const n = 1000
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		got := float64(after.Mallocs-before.Mallocs) / n
		t.Logf("%-12s %.2f allocs per durable append (budget %.0f)", s.name, got, budget)
		if failed != nil {
			t.Fatal(failed)
		}
		if got > budget {
			t.Errorf("%s: %.2f allocs per append exceeds the budget of %.0f", s.name, got, budget)
		}
	}
}

// TestRotationKeepsSyncingFileOpen: a rotation retires the write handles of
// full segments, but not one the committer is fsyncing at that moment —
// closing it failed the commit and wedged the log (a few runs in a hundred
// of this test, before the log tracked the files of the commit in
// progress).
func TestRotationKeepsSyncingFileOpen(t *testing.T) {
	l, err := Open(Config{Dir: t.TempDir(), SegmentBytes: 3 * segmentWindow})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	sizes := []int{0, 1, 100, 1024, 5000, maxRetainedRecord + 1, 3000, segmentWindow + 5}
	var wg sync.WaitGroup
	for a := 0; a < 5; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				payload := make([]byte, sizes[(a+i)%len(sizes)])
				if _, _, err := l.AppendSealed([]byte("k"), payload, false, placedMetaLen, 0, placedMeta); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(a)
	}
	wg.Wait()
}
