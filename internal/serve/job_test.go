package serve

import (
	"strings"
	"testing"
)

// validJob is a small, completely legal two-arm job used across the decode
// tests. 40k instructions keeps any test that actually runs it fast.
const validJob = `{
  "schema": "nls-job/v1",
  "insns": 40000,
  "programs": ["li", "gcc"],
  "grid": {
    "name": "t",
    "arms": [
      {
        "name": "nls",
        "spec": {
          "predictor": {"kind": "nls-table", "entries": 512},
          "cache": {"size_bytes": 8192, "line_bytes": 32, "assoc": 1},
          "pht": {"kind": "gshare", "entries": 1024, "history_bits": 6}
        }
      },
      {
        "name": "btb",
        "spec": {
          "predictor": {"kind": "btb", "entries": 256, "assoc": 4},
          "cache": {"size_bytes": 8192, "line_bytes": 32, "assoc": 1},
          "pht": {"kind": "gshare", "entries": 1024, "history_bits": 6}
        },
        "caches": [
          {"size_bytes": 8192, "line_bytes": 32, "assoc": 1},
          {"size_bytes": 16384, "line_bytes": 32, "assoc": 2}
        ]
      }
    ]
  }
}`

func TestDecodeJobValid(t *testing.T) {
	job, err := DecodeJob(strings.NewReader(validJob), Limits{})
	if err != nil {
		t.Fatalf("DecodeJob: %v", err)
	}
	// 2 programs × (1 + 2 geometry points) = 6 cells.
	if job.Cells != 6 {
		t.Errorf("Cells = %d, want 6", job.Cells)
	}
	if job.Cfg.Insns != 40000 {
		t.Errorf("Insns = %d, want 40000", job.Cfg.Insns)
	}
	if got := len(job.Cfg.Programs); got != 2 {
		t.Errorf("programs = %d, want 2", got)
	}
	if len(job.Key) != 64 {
		t.Errorf("Key = %q, want 64 hex chars", job.Key)
	}
}

func TestDecodeJobKeyDeterministic(t *testing.T) {
	a, err := DecodeJob(strings.NewReader(validJob), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := DecodeJob(strings.NewReader(validJob), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Key != b.Key {
		t.Errorf("same document, different keys: %s vs %s", a.Key, b.Key)
	}

	// Any content change must move the key: budget, spec sizing, penalties,
	// and presentation labels are all covered.
	for name, mutate := range map[string]string{
		"insns":     strings.Replace(validJob, `"insns": 40000`, `"insns": 40001`, 1),
		"entries":   strings.Replace(validJob, `"entries": 512`, `"entries": 1024`, 1),
		"penalties": strings.Replace(validJob, `"insns": 40000,`, `"insns": 40000, "penalties": {"misfetch": 2, "mispredict": 4, "cache_miss": 5},`, 1),
		"arm label": strings.Replace(validJob, `"name": "nls"`, `"name": "nls2"`, 1),
		"programs":  strings.Replace(validJob, `["li", "gcc"]`, `["li"]`, 1),
	} {
		m, err := DecodeJob(strings.NewReader(mutate), Limits{})
		if err != nil {
			t.Fatalf("%s variant failed to decode: %v", name, err)
		}
		if m.Key == a.Key {
			t.Errorf("changing %s did not change the flight key", name)
		}
	}
}

// TestDecodeJobTrailingWhitespace: whitespace after the document is not
// trailing data.
func TestDecodeJobTrailingWhitespace(t *testing.T) {
	if _, err := DecodeJob(strings.NewReader(validJob+" \n\t\r\n"), Limits{}); err != nil {
		t.Errorf("DecodeJob rejected trailing whitespace: %v", err)
	}
}

func TestDecodeJobDefaultsToAllPrograms(t *testing.T) {
	doc := strings.Replace(validJob, `"programs": ["li", "gcc"],`, ``, 1)
	job, err := DecodeJob(strings.NewReader(doc), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(job.Cfg.Programs); got != 6 {
		t.Errorf("defaulted to %d programs, want all 6", got)
	}
}

func TestDecodeJobRejects(t *testing.T) {
	cases := map[string]struct {
		doc  string
		lim  Limits
		want string // substring of the error
	}{
		"empty":             {doc: ``, want: "bad job document"},
		"not json":          {doc: `nope`, want: "bad job document"},
		"trailing data":     {doc: validJob + `{"x":1}`, want: "trailing data"},
		"trailing word":     {doc: validJob + ` x`, want: "trailing data"},
		"trailing brace":    {doc: validJob + `}`, want: "trailing data"},
		"trailing brackets": {doc: validJob + ` ]]]`, want: "trailing data"},
		"unknown field":     {doc: strings.Replace(validJob, `"insns"`, `"bogus": 1, "insns"`, 1), want: "bogus"},
		"bad schema":        {doc: strings.Replace(validJob, "nls-job/v1", "nls-job/v9", 1), want: `want "nls-job/v1"`},
		"zero insns":        {doc: strings.Replace(validJob, `"insns": 40000`, `"insns": 0`, 1), want: "out of range"},
		"negative insns":    {doc: strings.Replace(validJob, `"insns": 40000`, `"insns": -5`, 1), want: "out of range"},
		"insns over cap":    {doc: validJob, lim: Limits{MaxInsns: 1000}, want: "out of range"},
		"unknown program": {
			doc:  strings.Replace(validJob, `["li", "gcc"]`, `["li", "quake"]`, 1),
			want: `unknown program "quake"`,
		},
		"duplicate program": {
			// "gcc" and "gcc-like" alias the same built-in spec.
			doc:  strings.Replace(validJob, `["li", "gcc"]`, `["gcc", "gcc-like"]`, 1),
			want: "duplicate program",
		},
		"negative penalty": {
			doc:  strings.Replace(validJob, `"insns": 40000,`, `"insns": 40000, "penalties": {"misfetch": -1, "mispredict": 4, "cache_miss": 5},`, 1),
			want: "non-negative",
		},
		"no arms": {
			doc:  strings.Replace(validJob, `"arms": [`, `"arms2": [`, 1),
			want: "", // unknown field wins, any error is fine
		},
		"unnamed arm": {
			doc:  strings.Replace(validJob, `"name": "nls"`, `"name": ""`, 1),
			want: "has no name",
		},
		"non-pow2 entries": {
			doc:  strings.Replace(validJob, `"entries": 512`, `"entries": 513`, 1),
			want: "power of two",
		},
		"huge entries": {
			doc:  strings.Replace(validJob, `"entries": 512`, `"entries": 1073741824`, 1),
			want: "power of two",
		},
		"bad geometry": {
			doc:  strings.Replace(validJob, `{"size_bytes": 16384, "line_bytes": 32, "assoc": 2}`, `{"size_bytes": 16384, "line_bytes": 0, "assoc": 2}`, 1),
			want: "geometry",
		},
		"cell cap": {doc: validJob, lim: Limits{MaxCells: 3}, want: "cap"},
		"body cap": {doc: validJob, lim: Limits{MaxBodyBytes: 64}, want: "exceeds the 64-byte cap"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := DecodeJob(strings.NewReader(tc.doc), tc.lim)
			if err == nil {
				t.Fatal("DecodeJob accepted the document")
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestLimitsWithDefaults(t *testing.T) {
	d := Limits{}.withDefaults()
	if d != DefaultLimits() {
		t.Errorf("zero Limits = %+v, want defaults %+v", d, DefaultLimits())
	}
	custom := Limits{MaxBodyBytes: 99, MaxInsns: 7, MaxCells: 3}
	if got := custom.withDefaults(); got != custom {
		t.Errorf("explicit Limits were overridden: %+v", got)
	}
}

// exampleJob is the "Serving sweeps" example job of EXPERIMENTS.md,
// verbatim.
const exampleJob = `{
  "schema": "nls-job/v1",
  "insns": 2000000,
  "programs": ["li", "gcc"],
  "grid": {
    "name": "table-vs-btb",
    "arms": [
      {"name": "1024 NLS-table", "spec": {
        "predictor": {"kind": "nls-table", "entries": 1024},
        "cache": {"size_bytes": 16384, "line_bytes": 32, "assoc": 1},
        "pht": {"kind": "gshare", "entries": 4096, "history_bits": 6}}},
      {"name": "256 BTB", "spec": {
        "predictor": {"kind": "btb", "entries": 256, "assoc": 4},
        "cache": {"size_bytes": 16384, "line_bytes": 32, "assoc": 1},
        "pht": {"kind": "gshare", "entries": 4096, "history_bits": 6}}}
    ]
  }
}`

// TestFlightKeyGolden pins the flight key (the X-NLS-Job header) of the
// documented example job. The flight key hashes every cell's store key, so
// this also guards the cell key derivation: a change here would strand
// every stored cell and every client that recorded a job key.
func TestFlightKeyGolden(t *testing.T) {
	job, err := DecodeJob(strings.NewReader(exampleJob), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	const want = "a2366b431b06f0719d5b1350630dba109ecc010a9a4ad9b76651a290c7787051"
	if job.Key != want {
		t.Errorf("flight key = %s, want %s", job.Key, want)
	}
}
