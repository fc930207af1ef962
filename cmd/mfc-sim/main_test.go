package main

import (
	"strings"
	"testing"
)

// Every preset row builds a named server and a non-empty site, and -list
// prints one line per row, name first.
func TestPresetsBuildAndList(t *testing.T) {
	var out strings.Builder
	listPresets(&out)
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(lines) != len(presets) {
		t.Fatalf("-list printed %d lines for %d presets:\n%s", len(lines), len(presets), out.String())
	}
	seen := map[string]bool{}
	for i, p := range presets {
		if seen[p.name] {
			t.Errorf("preset %q listed twice", p.name)
		}
		seen[p.name] = true
		if !strings.HasPrefix(lines[i], p.name+" ") || !strings.HasSuffix(lines[i], " "+p.about) {
			t.Errorf("-list line %d = %q, want %q then %q", i, lines[i], p.name, p.about)
		}
		srv, site := p.build(1)
		if srv.Name == "" {
			t.Errorf("preset %q builds an unnamed server config", p.name)
		}
		if site == nil || site.Len() == 0 {
			t.Errorf("preset %q builds an empty site", p.name)
		}
	}
}
