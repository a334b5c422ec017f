package experiments

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/trace"
	"repro/internal/workload"
)

// buildTestCorpus writes cfg's corpus under dir from a throwaway runner, so a
// fresh runner afterwards finds it on disk and streams every program from
// it.
func buildTestCorpus(t *testing.T, cfg Config, dir string) string {
	t.Helper()
	path := CorpusPath(dir, cfg)
	r := NewRunner(cfg)
	if _, err := r.UseCorpus(path); err != nil {
		t.Fatal(err)
	}
	if err := r.CloseCorpus(); err != nil {
		t.Fatal(err)
	}
	return path
}

// regeneratedPrograms lists the programs r generated because their corpus
// entry was unusable.
func regeneratedPrograms(r *Runner) []string {
	var regen []string
	for i := range r.regenerated {
		if r.regenerated[i].Load() {
			regen = append(regen, r.Cfg.Programs[i].Name)
		}
	}
	return regen
}

// streamJob is one executor entry point, rendered to bytes for a
// byte-identical comparison.
type streamJob struct {
	name string
	run  func(t *testing.T, x *Executor) []byte
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// figuresJob runs figs in one pass and renders every grid's rows and
// every program's info.
func figuresJob(figs ...Figure) func(t *testing.T, x *Executor) []byte {
	return func(t *testing.T, x *Executor) []byte {
		t.Helper()
		rs, err := x.Run(figs...)
		if err != nil {
			t.Fatal(err)
		}
		var out []any
		for _, f := range figs {
			out = append(out, rs.Rows(f.Grid))
		}
		for _, p := range x.R.Cfg.Programs {
			out = append(out, rs.Info(p.Name))
		}
		return mustJSON(t, out)
	}
}

func streamJobs() []streamJob {
	// Two line sizes in one grid: each block carries one run annotation
	// per line size.
	mixed := Grid{Name: "mixed-lines", Arms: []Arm{
		{Name: "nls", Spec: arch.NLSTable(512), Caches: []cache.Geometry{
			cache.MustGeometry(8*1024, LineBytes, 1),
			cache.MustGeometry(8*1024, 64, 1),
		}},
	}}
	return []streamJob{
		// Grouped replay with ProgramInfo teed off the stream, plus the
		// private (pollution) and decoupled (prefetch) replay paths.
		{"figures", figuresJob(table1Figure(), widthFigure(), pollutionFigure(), prefetchFigure())},
		// Info-only replay: no cell, the stream drains through the tee.
		{"info-only", figuresJob(table1Figure())},
		{"mixed-lines", func(t *testing.T, x *Executor) []byte {
			rs, err := x.RunGrids(false, mixed)
			if err != nil {
				t.Fatal(err)
			}
			return mustJSON(t, rs.Rows(mixed))
		}},
		{"attribution", func(t *testing.T, x *Executor) []byte {
			return mustJSON(t, probedReports(t, x, AttributionGrid(), AttributionTopN))
		}},
	}
}

// TestStreamedReplayMatchesGenerated: a fresh runner over a pre-built
// corpus streams every program from it chunk by chunk, and every executor
// entry point must produce byte-identical output to a corpus-less runner
// streaming from the generator, at GOMAXPROCS 1 and 2.
func TestStreamedReplayMatchesGenerated(t *testing.T) {
	cfg := corpusTestConfig()
	dir := t.TempDir()
	buildTestCorpus(t, cfg, dir)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, job := range streamJobs() {
			want := job.run(t, &Executor{R: NewRunner(cfg)})
			x := &Executor{R: NewRunner(cfg), CorpusDir: dir}
			got := job.run(t, x)
			if regen := regeneratedPrograms(x.R); len(regen) > 0 {
				t.Errorf("procs=%d %s: intact corpus entries regenerated: %v", procs, job.name, regen)
			}
			x.R.CloseCorpus()
			if string(got) != string(want) {
				t.Errorf("procs=%d %s: streamed output differs from generated\n got %s\nwant %s",
					procs, job.name, got, want)
			}
		}
	}
}

// rewriteCorpusPayload edits one program's payload in the corpus file at
// path in place (edit must keep its length), then recomputes the index
// CRC and, when fixCRC is set, the payload CRC, so the file opens and
// fails, if at all, only while decoding or, without fixCRC, at the
// payload checksum checked after the drain. It walks the nls-corpus/v1
// layout (trace/corpus.go) directly.
func rewriteCorpusPayload(t *testing.T, path, program string, fixCRC bool, edit func(payload []byte)) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	footer := data[len(data)-20:]
	idx := data[binary.LittleEndian.Uint64(footer[4:12]) : len(data)-20]
	p := 0
	uvarint := func() int {
		v, n := binary.Uvarint(idx[p:])
		if n <= 0 {
			t.Fatalf("corpus index unreadable at %d", p)
		}
		p += n
		return int(v)
	}
	for count := uvarint(); count > 0; count-- {
		nameLen := uvarint()
		name := string(idx[p : p+nameLen])
		p += nameLen
		uvarint() // record count
		off, length := uvarint(), uvarint()
		crcAt := p
		p += 4
		if name != program {
			continue
		}
		payload := data[off : off+length]
		edit(payload)
		if fixCRC {
			binary.LittleEndian.PutUint32(idx[crcAt:], crc32.ChecksumIEEE(payload))
		}
		binary.LittleEndian.PutUint32(footer[0:4], crc32.ChecksumIEEE(idx))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	t.Fatalf("corpus has no program %q", program)
}

// checkFallback runs the corpus smoke sweep and the attribution replay
// over the (damaged) corpus in dir and requires output equal to fresh
// generation, with exactly the damaged program regenerated.
func checkFallback(t *testing.T, cfg Config, dir, damaged string) {
	t.Helper()
	want := corpusSweep(t, &Executor{R: NewRunner(cfg)})
	x := &Executor{R: NewRunner(cfg), CorpusDir: dir}
	got := corpusSweep(t, x)
	defer x.R.CloseCorpus()
	if x.R.attachedCorpus() == nil {
		t.Fatal("damaged program made the whole corpus miss; want a per-program fallback")
	}
	if string(mustJSON(t, got)) != string(mustJSON(t, want)) {
		t.Errorf("rows over the damaged corpus differ from generated\n got %+v\nwant %+v", got, want)
	}
	if regen := regeneratedPrograms(x.R); len(regen) != 1 || regen[0] != damaged {
		t.Errorf("regenerated %v, want exactly [%s]", regen, damaged)
	}

	wantAtt := probedReports(t, &Executor{R: NewRunner(cfg)}, AttributionGrid(), AttributionTopN)
	xa := &Executor{R: NewRunner(cfg), CorpusDir: dir}
	defer xa.R.CloseCorpus()
	gotAtt := probedReports(t, xa, AttributionGrid(), AttributionTopN)
	if regen := regeneratedPrograms(xa.R); len(regen) != 1 || regen[0] != damaged {
		t.Errorf("attribution regenerated %v, want exactly [%s]", regen, damaged)
	}
	if string(mustJSON(t, gotAtt)) != string(mustJSON(t, wantAtt)) {
		t.Error("attribution over the damaged corpus differs from generated")
	}
}

// TestCorpusStreamFailureFallsBack: a payload whose checksums are valid
// but whose record stream breaks partway passes every pre-replay check,
// so the failure surfaces only mid-replay. The program must be
// regenerated and replayed again from fresh engines: rows equal to fresh
// generation, no error.
func TestCorpusStreamFailureFallsBack(t *testing.T) {
	cfg := corpusTestConfig()
	dir := t.TempDir()
	path := buildTestCorpus(t, cfg, dir)
	damaged := cfg.Programs[0].Name
	rewriteCorpusPayload(t, path, damaged, true, func(payload []byte) {
		// 0xFF is never a valid record head (kind 7) and never ends a
		// varint, so decoding must fail wherever it enters this tail.
		for i := len(payload) / 2; i < len(payload); i++ {
			payload[i] = 0xFF
		}
	})

	// The premise: the stream opens, yields a first chunk, then fails.
	c, err := trace.OpenCorpus(path)
	if err != nil {
		t.Fatal(err)
	}
	d, err := c.ChunkSource(damaged, trace.DefaultChunkRecords)
	if err != nil {
		t.Fatalf("damaged payload rejected before decoding: %v", err)
	}
	if d.Len() != cfg.Insns || len(d.NextChunk()) == 0 {
		t.Fatal("damaged payload fails before its first chunk")
	}
	for blk := d.NextChunk(); len(blk) > 0; blk = d.NextChunk() {
	}
	if d.Err() == nil {
		t.Fatal("damaged payload decodes cleanly")
	}
	c.Close()

	checkFallback(t, cfg, dir, damaged)
}

// TestCorpusChecksumFailureFallsBack: a payload edited so that it still
// decodes, to different records, but no longer matches its checksum
// passes every pre-replay check and replays to the end; only then does
// the decoder report the mismatch. The program must be regenerated and
// replayed again from fresh engines: rows equal to fresh generation.
func TestCorpusChecksumFailureFallsBack(t *testing.T) {
	cfg := corpusTestConfig()
	dir := t.TempDir()
	path := buildTestCorpus(t, cfg, dir)
	damaged := cfg.Programs[0].Name
	rewriteCorpusPayload(t, path, damaged, false, func(payload []byte) {
		// Walk the NLST records to the first taken branch whose target
		// delta is a one-byte varint, and move the target by one word.
		p := 5
		nameLen, n := binary.Uvarint(payload[p:])
		p += n + int(nameLen)
		for k := 0; k < 2; k++ { // static sites, record count
			_, n = binary.Uvarint(payload[p:])
			p += n
		}
		for p < len(payload) {
			head := payload[p]
			p++
			if head&(1<<4) == 0 {
				_, n = binary.Varint(payload[p:])
				p += n
			}
			if head&(1<<3) != 0 {
				if payload[p] < 0x80 {
					payload[p] ^= 2
					return
				}
				_, n = binary.Varint(payload[p:])
				p += n
			}
		}
		t.Fatal("no taken branch with a one-byte target delta")
	})

	// The premise: every record decodes, and the drain reports the
	// mismatch.
	c, err := trace.OpenCorpus(path)
	if err != nil {
		t.Fatal(err)
	}
	d, err := c.ChunkSource(damaged, trace.DefaultChunkRecords)
	if err != nil {
		t.Fatalf("payload rejected before decoding: %v", err)
	}
	n := 0
	for blk := d.NextChunk(); len(blk) > 0; blk = d.NextChunk() {
		n += len(blk)
	}
	if n != cfg.Insns || d.Err() == nil || !strings.Contains(d.Err().Error(), "checksum") {
		t.Fatalf("decoded %d of %d records, err %v; want every record and a checksum mismatch", n, cfg.Insns, d.Err())
	}
	c.Close()

	checkFallback(t, cfg, dir, damaged)
}

// TestCorpusHeaderCountFallsBack: a payload whose own header declares a
// record count other than Cfg.Insns (the index still agrees with the
// budget, so the corpus opens) is rejected before replay and the program
// is regenerated.
func TestCorpusHeaderCountFallsBack(t *testing.T) {
	cfg := corpusTestConfig()
	dir := t.TempDir()
	path := buildTestCorpus(t, cfg, dir)
	damaged := cfg.Programs[1].Name
	rewriteCorpusPayload(t, path, damaged, true, func(payload []byte) {
		// NLST header: magic, version, name, static sites, count.
		p := 5
		nameLen, n := binary.Uvarint(payload[p:])
		p += n + int(nameLen)
		_, n = binary.Uvarint(payload[p:])
		p += n
		count, n := binary.Uvarint(payload[p:])
		if int(count) != cfg.Insns {
			t.Fatalf("header count %d, want %d", count, cfg.Insns)
		}
		if binary.PutUvarint(payload[p:p+n], count-1) != n {
			t.Fatal("count-1 changes the header length")
		}
	})

	// The mismatch is caught before replay, not only by the post-replay
	// record count.
	r := NewRunner(cfg)
	if _, err := r.UseCorpus(path); err != nil {
		t.Fatal(err)
	}
	src, err := r.source(1)
	r.CloseCorpus()
	if err != nil {
		t.Fatal(err)
	}
	if src.stream != nil {
		t.Fatal("payload header disagreeing with Insns was handed out for streaming")
	}

	checkFallback(t, cfg, dir, damaged)
}

// heapCeiling is the live-heap bound of a streamed 20M-instruction run:
// the trace itself is 240MB of records.
const heapCeiling = 32 << 20

// heapCeilingGrid is the two-cell grid the heap-ceiling tests replay.
func heapCeilingGrid() Grid {
	return Grid{Name: "heap", Arms: []Arm{
		{Name: "nls", Spec: arch.NLSTable(1024), Caches: cache16KDirect()},
		{Name: "btb", Spec: arch.BTB(128, 1), Caches: cache16KDirect()},
	}}
}

// peakLiveHeap runs f while sampling the live heap after a forced GC
// every 20ms, and returns the heap before f and the peak sample.
func peakLiveHeap(f func()) (base, peak uint64) {
	var ms runtime.MemStats
	sample := func() uint64 {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	base = sample()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				peak = max(peak, sample())
			}
		}
	}()
	f()
	close(stop)
	wg.Wait()
	return base, peak
}

// runHeapCeiling replays heapCeilingGrid through x under peakLiveHeap and
// fails if its live heap reached heapCeiling.
func runHeapCeiling(t *testing.T, x *Executor) {
	t.Helper()
	var rs *ResultSet
	var err error
	base, peak := peakLiveHeap(func() { rs, err = x.RunGrids(false, heapCeilingGrid()) })
	if err != nil {
		t.Fatal(err)
	}
	if rs.Simulated != 2 {
		t.Fatalf("simulated %d cells, want 2", rs.Simulated)
	}
	t.Logf("live heap: %.1f MB before, %.1f MB peak during RunGrids", float64(base)/(1<<20), float64(peak)/(1<<20))
	if peak >= heapCeiling {
		t.Errorf("peak live heap %.1f MB during a streamed run, ceiling %d MB",
			float64(peak)/(1<<20), heapCeiling>>20)
	}
}

// residentCeiling bounds how much a streamed run may grow the process's
// file-backed and its anonymous resident memory.
const residentCeiling = 4 << 20

// residentBytes reads the process's file-backed and anonymous resident
// memory (RssFile and RssAnon) from /proc/self/status; ok is false where
// that file or those fields are missing.
func residentBytes() (file, anon int64, ok bool) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, 0, false
	}
	seen := 0
	for _, line := range strings.Split(string(b), "\n") {
		var kb int64
		if _, err := fmt.Sscanf(line, "RssFile: %d kB", &kb); err == nil {
			file, seen = kb<<10, seen+1
		} else if _, err := fmt.Sscanf(line, "RssAnon: %d kB", &kb); err == nil {
			anon, seen = kb<<10, seen+1
		}
	}
	return file, anon, seen == 2
}

// TestStreamedReplayHeapCeiling pins DESIGN.md §7's O(chunk) promise on
// the production path: replaying one 20M-instruction program (240MB of
// records, a ~21MB payload) from the corpus through two cells must keep
// the live heap — sampled after a forced GC every 20ms throughout
// RunGrids — under 32MB. A whole-trace decode peaks at ~250MB here. Where
// /proc/self/status reports them (Linux), the run must also grow neither
// the file-backed nor the anonymous resident memory by residentCeiling:
// the payload is read through a bounded window, so it never becomes
// resident in the process, as a mapped corpus would.
func TestStreamedReplayHeapCeiling(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("20M-instruction trace generation; skipped in -short and -race runs")
	}
	cfg := DefaultConfig(20_000_000)
	cfg.Programs = []workload.Spec{workload.Li()}
	dir := t.TempDir()
	buildTestCorpus(t, cfg, dir)
	x := &Executor{R: NewRunner(cfg), CorpusDir: dir}
	defer x.R.CloseCorpus()
	file0, anon0, ok := residentBytes()
	runHeapCeiling(t, x)
	file1, anon1, _ := residentBytes()
	if !ok {
		t.Log("no RssFile/RssAnon in /proc/self/status; resident ceiling not checked")
		return
	}
	t.Logf("resident: RssFile %.1f -> %.1f MB, RssAnon %.1f -> %.1f MB",
		float64(file0)/(1<<20), float64(file1)/(1<<20), float64(anon0)/(1<<20), float64(anon1)/(1<<20))
	if file1-file0 > residentCeiling || anon1-anon0 > residentCeiling {
		t.Errorf("a streamed run grew RssFile by %.1f MB and RssAnon by %.1f MB; ceiling %d MB each",
			float64(file1-file0)/(1<<20), float64(anon1-anon0)/(1<<20), residentCeiling>>20)
	}
}

// TestColdCorpusBuildHeapCeiling extends the ceiling to a first run: a
// cold RunGrids with an empty CorpusDir generates the 20M-instruction
// program block by block into the corpus and then replays it from there,
// so neither the build nor the replay holds the trace. Materializing it
// for the build alone peaks at ~230MB. At a small budget the same cold
// path must give the rows of a corpus-less run.
func TestColdCorpusBuildHeapCeiling(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("20M-instruction trace generation; skipped in -short and -race runs")
	}
	small := corpusTestConfig()
	want, err := (&Executor{R: NewRunner(small)}).RunGrids(false, heapCeilingGrid())
	if err != nil {
		t.Fatal(err)
	}
	xs := &Executor{R: NewRunner(small), CorpusDir: t.TempDir()}
	got, err := xs.RunGrids(false, heapCeilingGrid())
	xs.R.CloseCorpus()
	if err != nil {
		t.Fatal(err)
	}
	if g, w := mustJSON(t, got.Rows(heapCeilingGrid())), mustJSON(t, want.Rows(heapCeilingGrid())); string(g) != string(w) {
		t.Fatalf("cold corpus run rows differ from a corpus-less run\n got %s\nwant %s", g, w)
	}

	cfg := DefaultConfig(20_000_000)
	cfg.Programs = []workload.Spec{workload.Li()}
	x := &Executor{R: NewRunner(cfg), CorpusDir: t.TempDir()}
	defer x.R.CloseCorpus()
	runHeapCeiling(t, x)
}

// TestGeneratorReplayHeapCeiling extends the ceiling to a corpus-less
// run: without a CorpusDir, RunGrids streams the 20M-instruction program
// from its generator block by block, so the live heap stays under 32MB
// just as it does over a corpus. Materializing the trace peaks at
// ~240MB.
func TestGeneratorReplayHeapCeiling(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("20M-instruction trace generation; skipped in -short and -race runs")
	}
	cfg := DefaultConfig(20_000_000)
	cfg.Programs = []workload.Spec{workload.Li()}
	runHeapCeiling(t, &Executor{R: NewRunner(cfg)})
}

// TestProbedRunAttachesCorpus: a run with probed cells only attaches the
// corpus under CorpusDir as a counter run does, so a probed figure on a
// warm store — where the counter cells need no trace — still decodes its
// traces instead of generating them.
func TestProbedRunAttachesCorpus(t *testing.T) {
	cfg := corpusTestConfig()
	dir := t.TempDir()
	buildTestCorpus(t, cfg, dir)
	x := &Executor{R: NewRunner(cfg), CorpusDir: dir}
	defer x.R.CloseCorpus()
	probedReports(t, x, AttributionGrid(), AttributionTopN)
	if x.R.attachedCorpus() == nil {
		t.Fatal("a probed-only run left the corpus under CorpusDir unattached")
	}
	if regen := regeneratedPrograms(x.R); len(regen) > 0 {
		t.Errorf("intact corpus entries regenerated: %v", regen)
	}
}

// TestStreamedReplayAllocBounded pins chunk recycling on the production
// path: a warm-corpus RunGrids of one 2M-instruction program through the
// paper matrix (24 cells) must allocate less than an eighth of the decoded
// trace (2M records × 12 B). Decoding every chunk into fresh storage
// allocates more than the whole trace; recycling released blocks leaves
// engine construction as the dominant allocation.
func TestStreamedReplayAllocBounded(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("2M-instruction paper-matrix replay; skipped in -short and -race runs")
	}
	const insns = 2_000_000
	cfg := DefaultConfig(insns)
	cfg.Programs = []workload.Spec{workload.Gcc()}
	dir := t.TempDir()
	buildTestCorpus(t, cfg, dir)
	g := Grid{Name: "paper", Arms: []Arm{
		{Name: "NLS-cache", Spec: arch.NLSCache(NLSPerLine), Caches: PaperCaches()},
		{Name: "1024 NLS-table", Spec: arch.NLSTable(1024), Caches: PaperCaches()},
		{Name: "128-entry direct BTB", Spec: arch.BTB(128, 1), Caches: PaperCaches()},
		{Name: "Johnson 1-bit", Spec: arch.Johnson(), Caches: PaperCaches()},
	}}
	x := &Executor{R: NewRunner(cfg), CorpusDir: dir}
	defer x.R.CloseCorpus()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rs, err := x.RunGrids(false, g)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Simulated != 24 {
		t.Fatalf("simulated %d cells, want 24", rs.Simulated)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	limit := uint64(insns * 12 / 8)
	t.Logf("RunGrids allocated %.2f MB (limit %.2f MB)", float64(alloc)/(1<<20), float64(limit)/(1<<20))
	if alloc >= limit {
		t.Errorf("streamed replay allocated %.2f MB, want under an eighth of the %.1f MB trace",
			float64(alloc)/(1<<20), float64(insns*12)/(1<<20))
	}
}
