package experiments

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

// TestRunAllDeterministic asserts that the parallel runner produces
// byte-identical tables to the serial path for several seeds: same rows,
// same notes, same metrics, same formatting, in the same display order.
// Since the cluster plane moved onto the virtual-time kernel this covers
// the entire registry — no experiment is exempt.
func TestRunAllDeterministic(t *testing.T) {
	list := All()
	if len(list) < 30 {
		t.Fatalf("only %d experiments registered", len(list))
	}
	for _, seed := range []uint64{1, 42, 1337} {
		cfg := Config{Seed: seed, Quick: true}
		serial := runExperiments(list, cfg, 1)
		par := runExperiments(list, cfg, 8)
		for i, e := range list {
			if serial[i] == nil || par[i] == nil {
				t.Fatalf("seed %d: experiment %s returned a nil table", seed, e.ID)
			}
			if serial[i].ID != e.ID || par[i].ID != e.ID {
				t.Fatalf("seed %d: table order broken at %d: serial %s, parallel %s, want %s",
					seed, i, serial[i].ID, par[i].ID, e.ID)
			}
			if got, want := par[i].Format(), serial[i].Format(); got != want {
				t.Errorf("seed %d: experiment %s text output differs between parallel and serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
					seed, e.ID, want, got)
			}
			if got, want := par[i].CSV(), serial[i].CSV(); got != want {
				t.Errorf("seed %d: experiment %s CSV output differs between parallel and serial", seed, e.ID)
			}
		}
		if t.Failed() {
			break // one seed's divergence is enough diagnostics
		}
	}
}

// TestRunAllRepeatable asserts the cluster-backed experiments — the ones
// that used to be wall-clock and vary run to run — now produce
// byte-identical tables across repeated runs at several seeds.
func TestRunAllRepeatable(t *testing.T) {
	var clusterExps []Experiment
	for _, id := range []string{"E14", "E15", "E23", "E24", "E29"} {
		e, err := Get(id)
		if err != nil {
			t.Fatalf("missing cluster experiment %s: %v", id, err)
		}
		clusterExps = append(clusterExps, e)
	}
	for _, seed := range []uint64{1, 42, 1337} {
		cfg := Config{Seed: seed, Quick: true}
		first := runExperiments(clusterExps, cfg, 4)
		second := runExperiments(clusterExps, cfg, 4)
		for i, e := range clusterExps {
			if got, want := second[i].Format(), first[i].Format(); got != want {
				t.Errorf("seed %d: experiment %s differs between repeated runs:\n--- first ---\n%s\n--- second ---\n%s",
					seed, e.ID, want, got)
			}
		}
	}
}

// TestRunAllCoversRegistry asserts RunAll covers the full registry in
// display order.
func TestRunAllCoversRegistry(t *testing.T) {
	tables := RunAll(Config{Seed: 42, Quick: true}, 4)
	all := All()
	if len(tables) != len(all) {
		t.Fatalf("RunAll returned %d tables, want %d", len(tables), len(all))
	}
	for i, e := range all {
		if tables[i] == nil {
			t.Fatalf("experiment %s returned a nil table", e.ID)
		}
		if tables[i].ID != e.ID {
			t.Fatalf("table %d is %s, want %s (display order must be preserved)", i, tables[i].ID, e.ID)
		}
	}
}

// explodeInExperiment is the panicking fake experiment's body, a named
// frame the recovered stack must still hold.
func explodeInExperiment(id string) *Table {
	panic(fmt.Sprintf("%s broke", id))
}

// TestRunExperimentsPanicNamesExperiment: a panicking experiment must not
// kill the process from an anonymous worker. The runner lets every other
// experiment finish and then re-raises the lowest failing index's panic,
// naming the experiment and seed, with the original stack and a
// reproducer as the last line.
func TestRunExperimentsPanicNamesExperiment(t *testing.T) {
	for _, parallelism := range []int{1, 4} {
		var ran atomic.Int64
		var list []Experiment
		for i := 0; i < 6; i++ {
			id := fmt.Sprintf("X%02d", i)
			run := func(Config) *Table {
				ran.Add(1)
				return NewTable(id, "fake", "none")
			}
			if i == 2 || i == 4 {
				run = func(Config) *Table {
					ran.Add(1)
					return explodeInExperiment(id)
				}
			}
			list = append(list, Experiment{ID: id, Run: run})
		}
		cfg := Config{Seed: 7, Quick: true, Shards: 2}
		msg := func() (msg string) {
			defer func() {
				r := recover()
				s, ok := r.(string)
				if !ok {
					t.Fatalf("parallelism %d: recovered %T %v, want a string message", parallelism, r, r)
				}
				msg = s
			}()
			runExperiments(list, cfg, parallelism)
			return ""
		}()
		if n := ran.Load(); n != int64(len(list)) {
			t.Fatalf("parallelism %d: %d of %d experiments ran before the re-raise", parallelism, n, len(list))
		}
		for _, want := range []string{"X02 (seed 7) panicked", "X02 broke", "explodeInExperiment"} {
			if !strings.Contains(msg, want) {
				t.Fatalf("parallelism %d: message lacks %q:\n%s", parallelism, want, msg)
			}
		}
		if strings.Contains(msg, "X04") {
			t.Fatalf("parallelism %d: message names X04, not the lowest failing index:\n%s", parallelism, msg)
		}
		lines := strings.Split(msg, "\n")
		if last, want := lines[len(lines)-1], "reproduce: fstutter run X02 -seed 7 -quick -shards 2"; last != want {
			t.Fatalf("parallelism %d: last line %q, want %q", parallelism, last, want)
		}
	}
}
