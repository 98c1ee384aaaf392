// Package mapping implements OtterTune-style workload mapping as an
// extension to ROBOTune's memoization (§6 of the paper contrasts the
// two: OtterTune maps unseen workloads to known ones, ROBOTune reuses
// knowledge only for repeated workload families).
//
// A workload is characterized by its *signature*: the execution times
// of a small fixed probe set of configurations. Two workloads whose
// signatures correlate strongly respond to configuration the same way
// — so a brand-new workload that behaves like an already-tuned family
// can inherit that family's parameter selection (and warm-start
// configurations) instead of paying the 100-sample selection cost.
//
// Signatures are compared with the Pearson correlation of log
// execution times, which is invariant to dataset-size scaling (a
// bigger input multiplies times roughly uniformly) and emphasizes the
// *shape* of the configuration response.
package mapping

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"

	"repro/internal/conf"
	"repro/internal/journal"
	"repro/internal/sample"
)

// Signature is a workload's response to the shared probe set.
type Signature struct {
	// LogTimes holds log(execution seconds) per probe configuration.
	LogTimes []float64 `json:"logTimes"`
}

// Valid reports whether the signature has probe data.
func (s Signature) Valid() bool { return len(s.LogTimes) > 0 }

// Evaluator is the subset of the black-box interface the mapper
// needs; *sparksim.Evaluator satisfies it via an adapter func.
type Evaluator func(c conf.Config) (seconds float64)

// Mapper characterizes workloads over a fixed probe design and finds
// the most similar previously registered workload. It is safe for
// concurrent use.
type Mapper struct {
	space  *conf.Space
	probes sample.Design

	mu   sync.Mutex
	sigs map[string]Signature
}

// NewMapper builds a mapper over the given space with k probe
// configurations (default 8). The probe set is a maximin LHS design,
// deterministic in the seed, shared by every characterization so
// signatures are comparable.
func NewMapper(space *conf.Space, k int, seed uint64) *Mapper {
	if k <= 0 {
		k = 8
	}
	return &Mapper{
		space:  space,
		probes: sample.MaximinLHS(k, space.Dim(), 0, sample.NewRNG(seed^0x3a9)),
		sigs:   make(map[string]Signature),
	}
}

// ProbeCount returns the number of probe evaluations Characterize
// will spend.
func (m *Mapper) ProbeCount() int { return len(m.probes) }

// ProbeConfigs returns the decoded probe configurations.
func (m *Mapper) ProbeConfigs() []conf.Config {
	out := make([]conf.Config, len(m.probes))
	for i, u := range m.probes {
		out[i] = m.space.Decode(u)
	}
	return out
}

// Characterize evaluates the probe set against the objective and
// returns the workload's signature. The caller pays ProbeCount()
// evaluations.
func (m *Mapper) Characterize(eval Evaluator) Signature {
	sig := Signature{LogTimes: make([]float64, len(m.probes))}
	for i, c := range m.ProbeConfigs() {
		sec := eval(c)
		if sec <= 0 {
			sec = 1e-3
		}
		sig.LogTimes[i] = math.Log(sec)
	}
	return sig
}

// Register stores a workload family's signature for future matching.
func (m *Mapper) Register(workload string, sig Signature) error {
	if !sig.Valid() {
		return fmt.Errorf("mapping: empty signature for %q", workload)
	}
	if len(sig.LogTimes) != len(m.probes) {
		return fmt.Errorf("mapping: signature has %d probes, mapper uses %d",
			len(sig.LogTimes), len(m.probes))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sigs[workload] = Signature{LogTimes: append([]float64(nil), sig.LogTimes...)}
	return nil
}

// Known returns the registered workload names, sorted.
func (m *Mapper) Known() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.sigs))
	for w := range m.sigs {
		out = append(out, w)
	}
	sort.Strings(out)
	return out
}

// Match holds one similarity result.
type Match struct {
	Workload   string
	Similarity float64 // Pearson correlation in [-1, 1]
}

// BestMatch returns the registered workload most similar to the
// signature, with its correlation. ok is false when nothing is
// registered or no correlation is computable.
func (m *Mapper) BestMatch(sig Signature) (Match, bool) {
	matches := m.Matches(sig)
	if len(matches) == 0 {
		return Match{}, false
	}
	return matches[0], true
}

// Matches returns all registered workloads ranked by similarity
// (highest first). Workloads with undefined correlation (constant
// signatures) are skipped.
func (m *Mapper) Matches(sig Signature) []Match {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []Match
	for w, s := range m.sigs {
		if len(s.LogTimes) != len(sig.LogTimes) {
			continue
		}
		r, ok := pearson(sig.LogTimes, s.LogTimes)
		if !ok {
			continue
		}
		out = append(out, Match{Workload: w, Similarity: r})
	}
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].Similarity != out[b].Similarity {
			return out[a].Similarity > out[b].Similarity
		}
		return out[a].Workload < out[b].Workload
	})
	return out
}

// pearson computes the Pearson correlation coefficient; ok is false
// when either vector is constant.
func pearson(a, b []float64) (float64, bool) {
	n := float64(len(a))
	if len(a) != len(b) || len(a) < 2 {
		return 0, false
	}
	var ma, mb float64
	for i := range a {
		ma += a[i]
		mb += b[i]
	}
	ma /= n
	mb /= n
	var cov, va, vb float64
	for i := range a {
		da := a[i] - ma
		db := b[i] - mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return 0, false
	}
	return cov / math.Sqrt(va*vb), true
}

// persisted is the JSON schema for Save/Load.
type persisted struct {
	Probes     [][]float64          `json:"probes"`
	Signatures map[string]Signature `json:"signatures"`
}

// Save writes the mapper's probe design and registered signatures to
// a JSON file, so mapping knowledge survives restarts alongside the
// memo store.
func (m *Mapper) Save(path string) error {
	m.mu.Lock()
	p := persisted{Probes: m.probes, Signatures: m.sigs}
	data, err := json.MarshalIndent(p, "", "  ")
	m.mu.Unlock()
	if err != nil {
		return fmt.Errorf("mapping: marshal: %w", err)
	}
	if err := journal.WriteFile(path, data); err != nil {
		return fmt.Errorf("mapping: write: %w", err)
	}
	return nil
}

// LoadMapper restores a mapper written by Save. The persisted probe
// design is reused verbatim so old and new signatures stay
// comparable. A missing file returns a fresh mapper built from the
// fallback arguments, like memo.Load.
func LoadMapper(space *conf.Space, path string, k int, seed uint64) (*Mapper, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return NewMapper(space, k, seed), nil
	}
	if err != nil {
		return nil, fmt.Errorf("mapping: read: %w", err)
	}
	var p persisted
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("mapping: parse %s: %w", path, err)
	}
	if len(p.Probes) == 0 {
		return nil, fmt.Errorf("mapping: %s has no probe design", path)
	}
	for i, probe := range p.Probes {
		if len(probe) != space.Dim() {
			return nil, fmt.Errorf("mapping: probe %d has dim %d, space has %d", i, len(probe), space.Dim())
		}
	}
	m := &Mapper{space: space, probes: p.Probes, sigs: p.Signatures}
	if m.sigs == nil {
		m.sigs = make(map[string]Signature)
	}
	return m, nil
}
