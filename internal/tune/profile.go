package tune

// Versioned on-disk tuning profiles. A profile is the durable half of
// the autotuner: `cmd/bench -tune` measures offline and writes one;
// a fleet of abmmd instances loads it at boot (-tune-profile) so every
// instance serves pre-tuned plans without paying measurement cost.
//
// The format is deliberately boring: one JSON document, a `schema`
// integer bumped on any incompatible change (decoders reject skew
// rather than guess), environment provenance (git SHA, Go version,
// GOMAXPROCS — tuning measurements are only as portable as the binary
// and core count that produced them), and a cell table sorted by shape.
// Encode is canonical — cells sorted by (m,k,n), two-space indent,
// trailing newline — so encode∘decode is byte-stable and profiles diff
// cleanly under version control.

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// Schema is the profile format version this package reads and writes.
// Decode rejects any other value: a version-skewed profile is treated
// by the serving layer as a cache miss, never silently misread. Schema
// 2 dropped the per-cell engine schedule, which the engine now derives
// from workers and levels; a schema-1 profile is served untuned.
const Schema = 2

// maxLevels bounds the recursion depth a decoded profile may request;
// deeper than this is certainly corruption (4^20 blocks overflows any
// realistic shape).
const maxLevels = 20

// Entry pins the tuned plan configuration for one operand shape,
// together with the measurements that justified it.
type Entry struct {
	// Operand shape: an M×K by K×N multiplication.
	M int `json:"m"`
	K int `json:"k"`
	N int `json:"n"`

	// The winning tuple: catalog algorithm name (abmm.Lookup), recursion
	// depth, and worker count (0 = GOMAXPROCS).
	Alg     string `json:"alg"`
	Levels  int    `json:"levels"`
	Workers int    `json:"workers,omitempty"`

	// Measurements: best-of-reps wall time per multiplication and the
	// classical-flop rate 2mkn/ns for the winner, plus the same
	// measurement for the default configuration it displaced and that
	// configuration's identity string.
	NsPerOp        int64   `json:"ns_per_op"`
	GFLOPS         float64 `json:"classical_gflops"`
	DefaultPlan    string  `json:"default_plan"`
	DefaultNsPerOp int64   `json:"default_ns_per_op"`

	// BoundFactor is the winner's Theorem III.8 forward-error factor
	// f(K,L) at the padded inner dimension (multiply by ε = 2⁻⁵³ for the
	// relative bound) — the accuracy axis of the decision, recorded so
	// operators can audit what the latency win cost in guaranteed bits.
	BoundFactor float64 `json:"bound_factor"`
}

// shape returns the entry's lookup key.
func (e Entry) shape() [3]int { return [3]int{e.M, e.K, e.N} }

// GainPercent is the winner's speedup over the displaced default, in
// percent of the default's time (0 when the default won or data is
// missing).
func (e Entry) GainPercent() float64 {
	if e.DefaultNsPerOp <= 0 || e.NsPerOp <= 0 || e.NsPerOp >= e.DefaultNsPerOp {
		return 0
	}
	return 100 * float64(e.DefaultNsPerOp-e.NsPerOp) / float64(e.DefaultNsPerOp)
}

// Profile is a versioned set of tuned cells plus the provenance of the
// machine and build that measured them.
type Profile struct {
	Schema     int    `json:"schema"`
	GitSHA     string `json:"git_sha,omitempty"`
	GoVersion  string `json:"go_version,omitempty"`
	GOOS       string `json:"goos,omitempty"`
	GOARCH     string `json:"goarch,omitempty"`
	GOMAXPROCS int    `json:"gomaxprocs,omitempty"`

	Cells []Entry `json:"cells"`
}

// NewProfile returns an empty profile stamped with the current
// environment's provenance.
func NewProfile() *Profile {
	return &Profile{
		Schema:     Schema,
		GitSHA:     gitSHA(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// gitSHA best-effort resolves the working tree's commit for profile
// provenance; empty when git or the repository is unavailable.
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// Lookup returns the tuned entry for an m×k·k×n multiplication.
func (p *Profile) Lookup(m, k, n int) (Entry, bool) {
	if p == nil {
		return Entry{}, false
	}
	for _, e := range p.Cells {
		if e.M == m && e.K == k && e.N == n {
			return e, true
		}
	}
	return Entry{}, false
}

// Decode parses and validates a tuning profile. It is strict: schema
// skew, malformed JSON, nonsensical shapes or depths, and duplicate
// cells are all errors. Callers on the serve path treat any error as
// "no profile" (see Tuner.LoadFile) — a bad file must never break
// serving, only leave it untuned.
func Decode(data []byte) (*Profile, error) {
	var p Profile
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("tune: decoding profile: %w", err)
	}
	if p.Schema != Schema {
		return nil, fmt.Errorf("tune: profile schema %d (this build reads %d)", p.Schema, Schema)
	}
	seen := make(map[[3]int]bool, len(p.Cells))
	for i, e := range p.Cells {
		if e.M < 1 || e.K < 1 || e.N < 1 {
			return nil, fmt.Errorf("tune: cell %d: invalid shape %dx%dx%d", i, e.M, e.K, e.N)
		}
		if e.Levels < 0 || e.Levels > maxLevels {
			return nil, fmt.Errorf("tune: cell %d: invalid levels %d", i, e.Levels)
		}
		if e.Alg == "" {
			return nil, fmt.Errorf("tune: cell %d: empty algorithm name", i)
		}
		if e.Workers < 0 {
			return nil, fmt.Errorf("tune: cell %d: negative workers %d", i, e.Workers)
		}
		if e.NsPerOp < 0 || e.DefaultNsPerOp < 0 {
			return nil, fmt.Errorf("tune: cell %d: negative measurement", i)
		}
		if seen[e.shape()] {
			return nil, fmt.Errorf("tune: duplicate cell for shape %dx%dx%d", e.M, e.K, e.N)
		}
		seen[e.shape()] = true
	}
	return &p, nil
}

// Encode renders the profile in canonical form: cells sorted by
// (m,k,n), two-space indentation, trailing newline. Decode∘Encode is
// the identity on canonical bytes (pinned by TestProfileRoundTrip and
// FuzzProfileDecode), so re-saving a profile never produces a spurious
// diff.
func (p *Profile) Encode() ([]byte, error) {
	q := *p
	q.Cells = append([]Entry(nil), p.Cells...)
	sort.Slice(q.Cells, func(i, j int) bool {
		a, b := q.Cells[i], q.Cells[j]
		if a.M != b.M {
			return a.M < b.M
		}
		if a.K != b.K {
			return a.K < b.K
		}
		return a.N < b.N
	})
	data, err := json.MarshalIndent(&q, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("tune: encoding profile: %w", err)
	}
	return append(data, '\n'), nil
}

// ReadProfile loads and strictly validates a profile file.
func ReadProfile(path string) (*Profile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("tune: %w", err)
	}
	return Decode(data)
}

// WriteFile saves the profile in canonical form.
func (p *Profile) WriteFile(path string) error {
	data, err := p.Encode()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("tune: %w", err)
	}
	return nil
}
