package experiments

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/metrics"
)

// TestStoreParallelReadersRaceWriter has many readers hammering Load on one
// cell key while a writer repeatedly Saves it. The atomic temp+rename write
// guarantees every reader sees either a miss (before the first rename) or
// the complete saved document — never an error, never a partial read. Run
// under -race via `make stress`.
func TestStoreParallelReadersRaceWriter(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const key = "deadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeef"
	want := metrics.Counters{Instructions: 123_456, Breaks: 789, Misfetches: 42}

	const readers = 8
	const saves = 50
	var wg sync.WaitGroup

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < saves; i++ {
			if err := store.Save(key, want); err != nil {
				t.Errorf("Save: %v", err)
				return
			}
		}
	}()

	hits := make([]int, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				var got metrics.Counters
				ok, err := store.Load(key, &got)
				if err != nil {
					t.Errorf("reader %d: Load returned error under contention: %v", r, err)
					return
				}
				if ok {
					hits[r]++
					if got != want {
						t.Errorf("reader %d: loaded %+v, want %+v (partial write visible?)", r, got, want)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()

	// The writer finished before the last reads, so at least someone hit.
	total := 0
	for _, h := range hits {
		total += h
	}
	if total == 0 {
		t.Error("no reader ever observed the saved cell")
	}
}

// TestStoreCorruptCellUnderContention races readers against a writer that
// clobbers the cell file with garbage via direct, non-atomic writes.
// Whatever interleaving the scheduler picks, Load must degrade to a miss —
// (false, nil) — never an error and never a fabricated document.
func TestStoreCorruptCellUnderContention(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const key = "0badc0de0badc0de0badc0de0badc0de0badc0de0badc0de0badc0de0badc0de"
	path := store.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			// Deliberately not atomic: readers may see empty or truncated
			// garbage mid-write.
			if err := os.WriteFile(path, []byte("{{{ not json"), 0o644); err != nil {
				t.Errorf("corrupting write: %v", err)
				return
			}
		}
	}()

	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				var got metrics.Counters
				ok, err := store.Load(key, &got)
				if err != nil {
					t.Errorf("reader %d: corrupt cell produced an error: %v", r, err)
					return
				}
				if ok {
					t.Errorf("reader %d: corrupt cell loaded as %+v", r, got)
					return
				}
			}
		}(r)
	}
	wg.Wait()

	// A corrupt cell must also be silently repairable: one Save overwrites
	// the garbage and the next Load hits.
	want := metrics.Counters{Instructions: 7}
	if err := store.Save(key, want); err != nil {
		t.Fatal(err)
	}
	var got metrics.Counters
	ok, err := store.Load(key, &got)
	if err != nil || !ok || got != want {
		t.Fatalf("Load after repair = %v, %v, %+v; want hit of %+v", ok, err, got, want)
	}
}

// TestStoreTypedReadersRaceWriters races typed-path readers against
// SaveCounters writers and a writer that clobbers the cell file mid-run
// with non-atomic writes of torn, other-version and garbage values, with
// the memo on. Readers alternate between the writers' store, whose memo
// the saves fill, and a fresh store over the same directory, whose first
// LoadCounters decodes whatever the file holds at that moment. Every read
// must be a miss or exactly the saved counters — never an error, never
// the counters of a corrupt file. Run under -race via `make stress`.
func TestStoreTypedReadersRaceWriters(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	const key = "feedfacefeedfacefeedfacefeedfacefeedfacefeedfacefeedfacefeedface"
	path := store.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	want := goldenCounters()
	other := metrics.Counters{Instructions: 666, Breaks: 66}
	otherVersion := encodeCell(&other)
	otherVersion[len(cellMagic)]++
	torn := encodeCell(&other)
	corrupt := [][]byte{torn[:len(torn)/2], otherVersion, []byte("{{{ not a cell")}

	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := store.SaveCounters(key, &want); err != nil {
					t.Errorf("SaveCounters: %v", err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			// Deliberately not atomic: readers may see empty or torn files.
			if err := os.WriteFile(path, corrupt[i%len(corrupt)], 0o644); err != nil {
				t.Errorf("corrupting write: %v", err)
				return
			}
		}
	}()
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s := store
				if i%2 == 1 {
					var err error
					if s, err = OpenStore(dir); err != nil {
						t.Errorf("reader %d: OpenStore: %v", r, err)
						return
					}
				}
				var got metrics.Counters
				ok, err := s.LoadCounters(key, &got)
				if err != nil {
					t.Errorf("reader %d: LoadCounters error under contention: %v", r, err)
					return
				}
				if ok && got != want {
					t.Errorf("reader %d: loaded %+v, want a miss or %+v", r, got, want)
					return
				}
			}
		}(r)
	}
	wg.Wait()

	// The saves memoized the counters, so the writers' store hits whatever
	// the last write to the file was.
	var got metrics.Counters
	if ok, err := store.LoadCounters(key, &got); err != nil || !ok || got != want {
		t.Fatalf("after the race: LoadCounters = (%v, %v, %+v), want hit of %+v", ok, err, got, want)
	}
}
