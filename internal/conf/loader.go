package conf

import (
	"encoding/json"
	"fmt"
	"os"
)

// This file implements loading configuration spaces from JSON, the
// hook for applying ROBOTune to systems other than Spark (§4: "some
// modifications are needed in the parameter selection and
// configuration encoder to apply ROBOTune to other systems, while
// other components can be mostly reused"). A space definition file
// replaces the built-in 44-parameter Spark space; everything else —
// sampling, selection, BO, memoization — works unchanged.

// paramSpec is the JSON schema for one parameter.
type paramSpec struct {
	Name    string   `json:"name"`
	Type    string   `json:"type"` // "int" | "float" | "bool" | "categorical"
	Min     *float64 `json:"min,omitempty"`
	Max     *float64 `json:"max,omitempty"`
	Log     bool     `json:"log,omitempty"`
	Choices []string `json:"choices,omitempty"`
	// Default is the raw numeric default for int/float, true/false
	// for bool, or the choice string for categorical.
	Default json.RawMessage `json:"default,omitempty"`
	Unit    string          `json:"unit,omitempty"`
	Group   string          `json:"group,omitempty"`
	Desc    string          `json:"desc,omitempty"`
}

type spaceSpec struct {
	// System names the tuned system (informational).
	System string      `json:"system,omitempty"`
	Params []paramSpec `json:"params"`
}

// ParseSpace builds a Space from a JSON definition. See LoadSpace for
// the schema.
func ParseSpace(data []byte) (*Space, error) {
	var spec spaceSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("conf: parse space: %w", err)
	}
	if len(spec.Params) == 0 {
		return nil, fmt.Errorf("conf: space defines no parameters")
	}
	params := make([]Param, 0, len(spec.Params))
	for i, ps := range spec.Params {
		p, err := ps.toParam()
		if err != nil {
			return nil, fmt.Errorf("conf: param %d (%q): %w", i, ps.Name, err)
		}
		params = append(params, p)
	}
	return NewSpace(params)
}

// LoadSpace reads a JSON space definition file:
//
//	{
//	  "system": "postgres",
//	  "params": [
//	    {"name": "shared_buffers", "type": "int", "min": 128, "max": 65536,
//	     "log": true, "default": 1024, "unit": "MB"},
//	    {"name": "wal_level", "type": "categorical",
//	     "choices": ["minimal", "replica", "logical"], "default": "replica"},
//	    {"name": "autovacuum", "type": "bool", "default": true},
//	    {"name": "checkpoint_completion_target", "type": "float",
//	     "min": 0.1, "max": 0.9, "default": 0.5}
//	  ]
//	}
func LoadSpace(path string) (*Space, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("conf: read space: %w", err)
	}
	return ParseSpace(data)
}

func (ps paramSpec) toParam() (Param, error) {
	p := Param{Name: ps.Name, Unit: ps.Unit, Group: ps.Group, Desc: ps.Desc, Log: ps.Log}
	switch ps.Type {
	case "int", "float":
		if ps.Type == "int" {
			p.Kind = Int
		} else {
			p.Kind = Float
		}
		if ps.Min == nil || ps.Max == nil {
			return p, fmt.Errorf("numeric parameter needs min and max")
		}
		p.Min, p.Max = *ps.Min, *ps.Max
		if len(ps.Default) > 0 {
			var d float64
			if err := json.Unmarshal(ps.Default, &d); err != nil {
				return p, fmt.Errorf("numeric default: %w", err)
			}
			p.Default = d
		} else {
			p.Default = p.Min
		}
	case "bool":
		p.Kind = Bool
		if len(ps.Default) > 0 {
			var d bool
			if err := json.Unmarshal(ps.Default, &d); err != nil {
				return p, fmt.Errorf("bool default: %w", err)
			}
			if d {
				p.Default = 1
			}
		}
	case "categorical":
		p.Kind = Categorical
		p.Choices = ps.Choices
		if len(ps.Default) > 0 {
			var d string
			if err := json.Unmarshal(ps.Default, &d); err != nil {
				return p, fmt.Errorf("categorical default: %w", err)
			}
			idx := -1
			for i, ch := range ps.Choices {
				if ch == d {
					idx = i
				}
			}
			if idx < 0 {
				return p, fmt.Errorf("default %q not among choices %v", d, ps.Choices)
			}
			p.Default = float64(idx)
		}
	default:
		return p, fmt.Errorf("unknown type %q (want int, float, bool or categorical)", ps.Type)
	}
	return p, p.Validate()
}
