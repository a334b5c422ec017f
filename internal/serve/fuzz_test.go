package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// refCellKey is the reference cell key derivation: the SHA-256 of one
// json.Marshal of the whole nls-cell/v1 key document (the store's
// documented layout), which Grid.Keyed must reproduce from fragments.
func refCellKey(w workload.Spec, insns int, s arch.Spec, p metrics.Penalties) string {
	buf, err := json.Marshal(struct {
		Schema    string            `json:"schema"`
		Workload  workload.Spec     `json:"workload"`
		Insns     int               `json:"insns"`
		Spec      arch.Spec         `json:"spec"`
		Penalties metrics.Penalties `json:"penalties"`
	}{"nls-cell/v1", w, insns, s, p})
	if err != nil {
		panic(err)
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// FuzzJobDecode exercises the job decoder — the service's untrusted-input
// surface — with arbitrary bytes: it must never panic or size an allocation
// from an unvalidated field, and anything it accepts must compile to a job
// that is bounded by the limits, re-validates cleanly, and derives a stable
// flight key.
func FuzzJobDecode(f *testing.F) {
	// Seeds: the valid documents plus the interesting rejection shapes.
	f.Add(validJob)
	f.Add(tinyJob)
	f.Add(``)
	f.Add(`{}`)
	f.Add(`{"insns": 1, "grid": {"name": "g", "arms": []}}`)
	f.Add(validJob[:len(validJob)/2])                                       // truncated mid-document
	f.Add(validJob + `}`)                                                   // stray closing brace after the document
	f.Add(validJob + ` ]]]`)                                                // stray closing brackets after the document
	f.Add(strings.Replace(validJob, `"entries": 512`, `"entries": 513`, 1)) // non-pow2 table
	f.Add(strings.Replace(validJob, `"entries": 512`, `"entries": 4611686018427387904`, 1))
	f.Add(strings.Replace(validJob, `"entries": 512`, `"entries": -8`, 1))
	f.Add(strings.Replace(validJob, `"line_bytes": 32`, `"line_bytes": 31`, 1)) // bad geometry
	f.Add(strings.Replace(validJob, `"size_bytes": 8192`, `"size_bytes": 1073741824`, 1))
	f.Add(strings.Replace(validJob, `["li", "gcc"]`, `["quake"]`, 1)) // unknown program
	f.Add(strings.Replace(validJob, `"insns": 40000`, `"insns": 99999999999`, 1))
	f.Add(strings.Replace(validJob, `"kind": "nls-table"`, `"kind": "nls-cache", "per_line": 3`, 1))
	f.Add(strings.Replace(validJob, `"kind": "gshare"`, `"kind": "gas"`, 1))
	f.Add(`{"schema": "nls-job/v1", "insns": 1000, "grid": {"arms": [{"name": "a", "spec": {}}]}}`)
	// TAGE spec surface: one legal arm, then the hostile shapes Validate
	// must reject without sizing an allocation from them — table count
	// beyond MaxTAGETables, tag width beyond MaxTAGETagBits, an inverted
	// history range, entries beyond MaxPHTEntries, tage fields leaking
	// onto a gshare kind, and legacy history_bits leaking onto tage.
	const tagePHT = `{"kind": "tage", "entries": 512, "tage_tables": 4, "tage_entries": 128, "tage_tag_bits": 9, "tage_min_hist": 4, "tage_max_hist": 64}`
	legacyPHT := `{"kind": "gshare", "entries": 1024, "history_bits": 6}`
	f.Add(strings.Replace(validJob, legacyPHT, tagePHT, 1))
	f.Add(strings.Replace(validJob, legacyPHT, strings.Replace(tagePHT, `"tage_tables": 4`, `"tage_tables": 9`, 1), 1))
	f.Add(strings.Replace(validJob, legacyPHT, strings.Replace(tagePHT, `"tage_tag_bits": 9`, `"tage_tag_bits": 99`, 1), 1))
	f.Add(strings.Replace(validJob, legacyPHT, strings.Replace(tagePHT, `"tage_min_hist": 4`, `"tage_min_hist": 64`, 1), 1))
	f.Add(strings.Replace(validJob, legacyPHT, strings.Replace(tagePHT, `"tage_entries": 128`, `"tage_entries": 4611686018427387904`, 1), 1))
	f.Add(strings.Replace(validJob, legacyPHT, strings.Replace(tagePHT, `"tage_max_hist": 64`, `"tage_max_hist": -1`, 1), 1))
	f.Add(strings.Replace(validJob, `"kind": "gshare", "entries": 1024`, `"kind": "gshare", "tage_tables": 4, "entries": 1024`, 1))
	f.Add(strings.Replace(validJob, legacyPHT, strings.Replace(tagePHT, `"kind": "tage"`, `"kind": "tage", "history_bits": 6`, 1), 1))
	// PrefetchSpec surface: the two legal kinds, then hostile shapes —
	// fields meaningless for the kind, every sizing cap overshot (FTQ depth,
	// degree, MSHRs, latency — each sizes an allocation or a loop bound),
	// and negatives.
	withPref := func(pref string) string {
		return strings.Replace(validJob, legacyPHT, legacyPHT+`, "prefetch": `+pref, 1)
	}
	f.Add(withPref(`{"kind": "fdip", "ftq_depth": 8}`))
	f.Add(withPref(`{"kind": "next-line", "degree": 2, "mshrs": 16, "latency": 30}`))
	f.Add(withPref(`{"kind": "stream"}`))
	f.Add(withPref(`{"kind": "fdip"}`))
	f.Add(withPref(`{"kind": "fdip", "ftq_depth": 8, "degree": 2}`))
	f.Add(withPref(`{"kind": "fdip", "ftq_depth": 4611686018427387904}`))
	f.Add(withPref(`{"kind": "fdip", "ftq_depth": -8}`))
	f.Add(withPref(`{"kind": "next-line", "ftq_depth": 8}`))
	f.Add(withPref(`{"kind": "next-line", "degree": 4611686018427387904}`))
	f.Add(withPref(`{"kind": "fdip", "ftq_depth": 8, "mshrs": 4611686018427387904}`))
	f.Add(withPref(`{"kind": "fdip", "ftq_depth": 8, "latency": -20}`))

	lim := Limits{MaxBodyBytes: 1 << 16, MaxInsns: 1 << 20, MaxCells: 64}

	f.Fuzz(func(t *testing.T, doc string) {
		job, err := DecodeJob(strings.NewReader(doc), lim)
		if err != nil {
			return // rejection is fine; panics and unbounded allocation are not
		}
		// Accepted jobs must respect every limit...
		if job.Cfg.Insns <= 0 || job.Cfg.Insns > lim.MaxInsns {
			t.Fatalf("accepted job with insns %d outside (0, %d]", job.Cfg.Insns, lim.MaxInsns)
		}
		if job.Cells <= 0 || job.Cells > lim.MaxCells {
			t.Fatalf("accepted job with %d cells, cap %d", job.Cells, lim.MaxCells)
		}
		if len(job.Cfg.Programs) == 0 {
			t.Fatal("accepted job resolved to no programs")
		}
		// ...be buildable without panicking (Validate really covered Build)...
		for _, a := range job.Grid.Arms {
			if len(a.Caches) == 0 {
				a.Spec.MustBuild()
				continue
			}
			for _, g := range a.Caches {
				a.Spec.WithGeometry(g).MustBuild()
			}
		}
		// ...derive every cell key exactly as the whole-document marshal
		// does...
		if len(job.keyed.Cells) != job.Cells || len(job.keyed.Keys) != job.Cells {
			t.Fatalf("job keyed %d cells and %d keys, want %d", len(job.keyed.Cells), len(job.keyed.Keys), job.Cells)
		}
		for i, c := range job.keyed.Cells {
			if want := refCellKey(c.Prog, job.Cfg.Insns, c.Spec, job.Cfg.Penalties); job.keyed.Keys[i] != want {
				t.Fatalf("cell %s/%s keyed %s, struct marshal %s", c.Prog.Name, c.Arm, job.keyed.Keys[i], want)
			}
		}
		// ...and key deterministically.
		again, err := DecodeJob(strings.NewReader(doc), lim)
		if err != nil {
			t.Fatalf("accepted document rejected on second decode: %v", err)
		}
		if again.Key != job.Key {
			t.Fatalf("flight key not deterministic: %s vs %s", job.Key, again.Key)
		}
	})
}
