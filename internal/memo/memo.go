// Package memo implements ROBOTune's Memoized Sampling state (§3.2):
// the Parameter Selection Cache, which remembers the high-impact
// parameters chosen for each workload family so repeated workloads
// skip the expensive selection phase; and the Configuration
// Memoization Buffer, which keeps a few of the best configurations
// from prior tuning sessions to seed the BO training set when the
// same workload returns with a different input dataset.
//
// Both structures are keyed by workload family (e.g. "PageRank"), not
// by dataset: the paper observes that high-impact parameters remain
// stable across dataset sizes while optimal values shift, which is
// exactly the split between the two caches.
package memo

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"

	"repro/internal/journal"
)

// SavedConfig is one memoized high-performance configuration.
type SavedConfig struct {
	// Values maps parameter names to raw values.
	Values map[string]float64 `json:"values"`
	// Seconds is the execution time observed when it was saved.
	Seconds float64 `json:"seconds"`
	// Dataset records which input the configuration was tuned for.
	Dataset string `json:"dataset"`
}

// Store holds both caches. It is safe for concurrent use and can be
// persisted to JSON.
type Store struct {
	mu         sync.Mutex
	selections map[string][]string
	configs    map[string][]SavedConfig
}

// NewStore returns an empty in-memory store.
func NewStore() *Store {
	return &Store{
		selections: make(map[string][]string),
		configs:    make(map[string][]SavedConfig),
	}
}

// Selection returns the cached high-impact parameter names for the
// workload family — a parameter-selection cache hit (Figure 1).
func (s *Store) Selection(workload string) ([]string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sel, ok := s.selections[workload]
	if !ok {
		return nil, false
	}
	return append([]string(nil), sel...), true
}

// PutSelection stores the selected parameters for a workload family.
func (s *Store) PutSelection(workload string, params []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.selections[workload] = append([]string(nil), params...)
}

// BestConfigs returns up to n memoized configurations for the
// workload family, best (lowest Seconds) first — the Best Recent
// Configs of Figure 1.
func (s *Store) BestConfigs(workload string, n int) []SavedConfig {
	s.mu.Lock()
	defer s.mu.Unlock()
	saved := s.configs[workload]
	out := make([]SavedConfig, 0, n)
	for i := 0; i < len(saved) && i < n; i++ {
		c := saved[i]
		c.Values = cloneValues(c.Values)
		out = append(out, c)
	}
	return out
}

// AddConfigs merges new well-tuned configurations into the buffer for
// the workload family, keeping only the `keep` best by Seconds.
func (s *Store) AddConfigs(workload string, cfgs []SavedConfig, keep int) {
	if keep < 1 {
		keep = 4
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	merged := append(append([]SavedConfig(nil), s.configs[workload]...), cloneConfigs(cfgs)...)
	sort.SliceStable(merged, func(a, b int) bool { return merged[a].Seconds < merged[b].Seconds })
	if len(merged) > keep {
		merged = merged[:keep]
	}
	s.configs[workload] = merged
}

// Workloads returns the workload families present in either cache,
// sorted.
func (s *Store) Workloads() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	set := make(map[string]bool)
	for w := range s.selections {
		set[w] = true
	}
	for w := range s.configs {
		set[w] = true
	}
	out := make([]string, 0, len(set))
	for w := range set {
		out = append(out, w)
	}
	sort.Strings(out)
	return out
}

// persisted is the JSON schema for Save/Load.
type persisted struct {
	Selections map[string][]string      `json:"selections"`
	Configs    map[string][]SavedConfig `json:"configs"`
}

// MarshalJSON serializes the store's full contents (both caches), so a
// *Store embeds directly in larger JSON documents.
func (s *Store) MarshalJSON() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return json.Marshal(persisted{Selections: s.selections, Configs: s.configs})
}

// UnmarshalJSON replaces the store's contents with the serialized
// state, the inverse of MarshalJSON.
func (s *Store) UnmarshalJSON(data []byte) error {
	var p persisted
	if err := json.Unmarshal(data, &p); err != nil {
		return fmt.Errorf("memo: parse store: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.selections = p.Selections
	if s.selections == nil {
		s.selections = make(map[string][]string)
	}
	s.configs = p.Configs
	if s.configs == nil {
		s.configs = make(map[string][]SavedConfig)
	}
	return nil
}

// Save writes the store to a JSON file.
func (s *Store) Save(path string) error {
	s.mu.Lock()
	p := persisted{Selections: s.selections, Configs: s.configs}
	data, err := json.MarshalIndent(p, "", "  ")
	s.mu.Unlock()
	if err != nil {
		return fmt.Errorf("memo: marshal: %w", err)
	}
	if err := journal.WriteFile(path, data); err != nil {
		return fmt.Errorf("memo: write: %w", err)
	}
	return nil
}

// Load reads a store previously written by Save. A missing file
// yields an empty store, so first runs need no setup.
func Load(path string) (*Store, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return NewStore(), nil
	}
	if err != nil {
		return nil, fmt.Errorf("memo: read: %w", err)
	}
	var p persisted
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("memo: parse %s: %w", path, err)
	}
	s := NewStore()
	if p.Selections != nil {
		s.selections = p.Selections
	}
	if p.Configs != nil {
		s.configs = p.Configs
	}
	return s, nil
}

func cloneValues(v map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(v))
	for k, x := range v {
		out[k] = x
	}
	return out
}

func cloneConfigs(cs []SavedConfig) []SavedConfig {
	out := make([]SavedConfig, len(cs))
	for i, c := range cs {
		out[i] = SavedConfig{Values: cloneValues(c.Values), Seconds: c.Seconds, Dataset: c.Dataset}
	}
	return out
}
