package conf

import (
	"os"
	"path/filepath"
	"testing"
)

const pgSpace = `{
  "system": "postgres",
  "params": [
    {"name": "shared_buffers", "type": "int", "min": 128, "max": 65536,
     "log": true, "default": 1024, "unit": "MB"},
    {"name": "wal_level", "type": "categorical",
     "choices": ["minimal", "replica", "logical"], "default": "replica"},
    {"name": "autovacuum", "type": "bool", "default": true},
    {"name": "checkpoint_completion_target", "type": "float",
     "min": 0.1, "max": 0.9, "default": 0.5, "group": "checkpoint"}
  ]
}`

func TestParseSpace(t *testing.T) {
	s, err := ParseSpace([]byte(pgSpace))
	if err != nil {
		t.Fatal(err)
	}
	if s.Dim() != 4 {
		t.Fatalf("dim = %d", s.Dim())
	}
	def := s.Default()
	if def.Int("shared_buffers") != 1024 {
		t.Errorf("shared_buffers default = %d", def.Int("shared_buffers"))
	}
	if def.Choice("wal_level") != "replica" {
		t.Errorf("wal_level default = %q", def.Choice("wal_level"))
	}
	if !def.Bool("autovacuum") {
		t.Error("autovacuum default should be true")
	}
	if def.Float("checkpoint_completion_target") != 0.5 {
		t.Error("float default wrong")
	}
	p, _ := s.Param("shared_buffers")
	if !p.Log || p.Unit != "MB" {
		t.Errorf("shared_buffers attrs: %+v", p)
	}
	p, _ = s.Param("checkpoint_completion_target")
	if p.Group != "checkpoint" {
		t.Error("group lost")
	}
	// The loaded space works with the unit-cube machinery.
	c := s.Decode([]float64{0.5, 0.5, 0.5, 0.5})
	if c.Int("shared_buffers") < 128 || c.Int("shared_buffers") > 65536 {
		t.Error("decode out of range")
	}
}

func TestParseSpaceErrors(t *testing.T) {
	cases := map[string]string{
		"not json":        `{nope`,
		"empty":           `{"params": []}`,
		"missing range":   `{"params": [{"name": "x", "type": "int"}]}`,
		"bad type":        `{"params": [{"name": "x", "type": "enum"}]}`,
		"bad default":     `{"params": [{"name": "x", "type": "int", "min": 0, "max": 1, "default": "huh"}]}`,
		"bad bool":        `{"params": [{"name": "x", "type": "bool", "default": 3}]}`,
		"unknown choice":  `{"params": [{"name": "x", "type": "categorical", "choices": ["a","b"], "default": "c"}]}`,
		"one choice":      `{"params": [{"name": "x", "type": "categorical", "choices": ["a"]}]}`,
		"duplicate names": `{"params": [{"name": "x", "type": "bool"}, {"name": "x", "type": "bool"}]}`,
	}
	for label, src := range cases {
		if _, err := ParseSpace([]byte(src)); err == nil {
			t.Errorf("%s: accepted", label)
		}
	}
}

func TestLoadSpaceFromFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "space.json")
	if err := os.WriteFile(path, []byte(pgSpace), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := LoadSpace(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Dim() != 4 {
		t.Fatalf("dim = %d", s.Dim())
	}
	if _, err := LoadSpace(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}
