package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// expectations maps an op's shape key to the simulated output every run
// must reproduce bit for bit. They are recorded once (-record) and
// committed; a change meant only as a speed-up leaves them valid.
type expectations map[string][]string

func expectPath(dir, workload string) string {
	return filepath.Join(dir, workload+".json")
}

func loadExpectations(dir, workload string) (expectations, error) {
	b, err := os.ReadFile(expectPath(dir, workload))
	if err != nil {
		return nil, fmt.Errorf("expectations: %w", err)
	}
	var e expectations
	if err := json.Unmarshal(b, &e); err != nil {
		return nil, fmt.Errorf("expectations %s: %w", expectPath(dir, workload), err)
	}
	return e, nil
}

func (e expectations) save(dir, workload string) error {
	keys := make([]string, 0, len(e))
	for k := range e {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	// One key per line keeps re-recorded files diffable.
	var b strings.Builder
	b.WriteString("{\n")
	for i, k := range keys {
		kb, _ := json.Marshal(k)
		vb, _ := json.Marshal(e[k])
		fmt.Fprintf(&b, "  %s: %s", kb, vb)
		if i < len(keys)-1 {
			b.WriteString(",")
		}
		b.WriteString("\n")
	}
	b.WriteString("}\n")
	return os.WriteFile(expectPath(dir, workload), []byte(b.String()), 0o644)
}

// verify compares one op's output with its recorded expectation. An
// empty key means the op verified its output itself.
func (e expectations) verify(key string, got []string) error {
	if key == "" {
		return nil
	}
	want, ok := e[key]
	if !ok {
		return fmt.Errorf("no recorded expectation")
	}
	if len(want) != len(got) {
		return fmt.Errorf("output has %d values, recorded %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Errorf("output[%d] = %s, recorded %s", i, got[i], want[i])
		}
	}
	return nil
}

// bits renders a float64 exactly, so that a recorded value is compared
// bit for bit rather than after decimal rounding.
func bits(f float64) string {
	return fmt.Sprintf("%016x", math.Float64bits(f))
}
