package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// asCLI is the first argument that makes the test binary run main as the
// fstutter command, so CLI tests drive the real flag parsing and exit
// codes in a child process.
const asCLI = "-run-as-fstutter"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == asCLI {
		os.Args = append([]string{"fstutter"}, os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI runs fstutter with args and extra environment, returning its exit
// code and standard error.
func runCLI(t *testing.T, env []string, args ...string) (int, string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], append([]string{asCLI}, args...)...)
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "GOMAXPROCS=") {
			cmd.Env = append(cmd.Env, kv)
		}
	}
	cmd.Env = append(cmd.Env, env...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stderr.String()
	}
	t.Fatalf("fstutter %v: %v", args, err)
	return 0, ""
}

// TestBenchRefusesOversubscription: `fstutter bench` must not write a
// baseline in which more threads, shards or sweep workers than the host
// has CPUs contend for cores. It exits 2 with a one-line reason, before
// measuring anything, and leaves no artifact behind.
func TestBenchRefusesOversubscription(t *testing.T) {
	n := runtime.NumCPU()
	over := strconv.Itoa(n + 1)
	fits := "GOMAXPROCS=" + strconv.Itoa(n)
	for _, tc := range []struct {
		name   string
		env    []string
		args   []string
		reason string
	}{
		{"gomaxprocs", []string{"GOMAXPROCS=" + over}, nil, "gomaxprocs " + over + " exceeds numcpu"},
		{"shards", []string{fits}, []string{"-shards", over}, "-shards " + over + " exceeds numcpu"},
		{"sweep-workers", []string{fits}, []string{"-sweep-workers", over}, "-sweep-workers " + over + " exceeds numcpu"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "BENCH.json")
			code, stderr := runCLI(t, tc.env, append([]string{"bench", "-samples", "1", "-out", out}, tc.args...)...)
			if code != 2 {
				t.Fatalf("exit %d, want 2; stderr:\n%s", code, stderr)
			}
			if lines := strings.Split(strings.TrimSpace(stderr), "\n"); len(lines) != 1 || !strings.Contains(lines[0], tc.reason) {
				t.Fatalf("stderr %q, want one line naming %q", stderr, tc.reason)
			}
			if _, err := os.Stat(out); !os.IsNotExist(err) {
				t.Fatalf("refused bench left an artifact at %s (stat: %v)", out, err)
			}
		})
	}
}
