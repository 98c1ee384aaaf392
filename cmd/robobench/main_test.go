package main

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseExperiments(t *testing.T) {
	for _, tc := range []struct {
		list string
		want map[string]bool
	}{
		{"all", map[string]bool{"all": true}},
		{"fig3, Default ,amortization", map[string]bool{"fig3": true, "default": true, "amortization": true}},
		{"fig8,fig8", map[string]bool{"fig8": true}},
	} {
		got, err := parseExperiments(tc.list)
		if err != nil {
			t.Fatalf("%q: %v", tc.list, err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%q: got %v, want %v", tc.list, got, tc.want)
		}
	}

	// One bad name rejects the whole list, and the error names it and
	// every known experiment.
	for _, list := range []string{"fig3,defualt", "", "fig3,", "fig10"} {
		got, err := parseExperiments(list)
		if err == nil {
			t.Fatalf("%q: accepted as %v", list, got)
		}
		for _, name := range experimentNames {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("%q: error %q does not list %q", list, err, name)
			}
		}
	}
	if _, err := parseExperiments("fig3,defualt"); !strings.Contains(err.Error(), `"defualt"`) {
		t.Errorf("error %q does not name the unknown experiment", err)
	}
}
