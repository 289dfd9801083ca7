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
// code, standard output and standard error.
func runCLI(t *testing.T, env []string, args ...string) (code int, stdout, stderr string) {
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
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, out.String(), errOut.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), out.String(), errOut.String()
	}
	t.Fatalf("fstutter %v: %v", args, err)
	return 0, "", ""
}

// TestCLIExitCodes pins the command line's exit codes: every usage error
// exits 2 before running anything, naming what was wrong on stderr, and
// list exits 0.
func TestCLIExitCodes(t *testing.T) {
	oracleDir := filepath.Join(t.TempDir(), "oracle")
	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stderr string
	}{
		{"no-arguments", nil, 2, "usage:"},
		{"unknown-command", []string{"frobnicate"}, 2, `unknown command "frobnicate"`},
		{"unknown-id", []string{"run", "E99"}, 2, `unknown experiment "E99"`},
		{"run-without-ids", []string{"run"}, 2, "at least one experiment id required"},
		{"bad-format", []string{"-format", "xml", "list"}, 2, `unknown format "xml"`},
		{"bench-no-samples", []string{"bench", "-samples", "0"}, 2, "-samples must be at least 1, got 0"},
		{"uncovered-oracle", []string{"oracle", "E01", "E09", "-quick", "-out", oracleDir}, 2, "no predictor for experiment E09"},
		{"list", []string{"list"}, 0, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := runCLI(t, nil, tc.args...)
			if code != tc.code {
				t.Fatalf("exit %d, want %d; stderr:\n%s", code, tc.code, stderr)
			}
			if tc.code == 0 {
				if !strings.Contains(stdout, "E01") {
					t.Fatalf("stdout lacks E01:\n%s", stdout)
				}
				return
			}
			if !strings.Contains(stderr, tc.stderr) {
				t.Fatalf("stderr %q, want it to name %q", stderr, tc.stderr)
			}
			if stdout != "" {
				t.Fatalf("usage error ran something; stdout:\n%s", stdout)
			}
		})
	}
	if _, err := os.Stat(oracleDir); !os.IsNotExist(err) {
		t.Fatalf("rejected oracle run left artifacts at %s (stat: %v)", oracleDir, err)
	}
}

// TestCLIExitOnFailure pins the runtime failures that exit 1: an artifact
// that cannot be written, a bench artifact that cannot be read, and a
// perfdiff regression under -gate. Each names its cause on stderr.
func TestCLIExitOnFailure(t *testing.T) {
	dir := t.TempDir()
	notDir := filepath.Join(dir, "file")
	bench := func(name string, ns float64) string {
		path := filepath.Join(dir, name)
		s := strconv.FormatFloat(ns, 'g', -1, 64)
		body := `{"schema":"fstutter-bench/1","seed":42,"quick":true,"benchmarks":[` +
			`{"name":"experiment/E01","unit":"ns/op","samples":[` + strings.Repeat(s+",", 4) + s + `]}]}`
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	if err := os.WriteFile(notDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	old, slow := bench("old.json", 1e6), bench("slow.json", 2e6)
	for _, tc := range []struct {
		name           string
		args           []string
		stdout, stderr string
	}{
		{"unwritable-artifact", []string{"run", "E01", "-quick", "-metrics-out", filepath.Join(notDir, "sub")}, "", "fstutter: mkdir " + notDir},
		{"perfdiff-missing-file", []string{"perfdiff", filepath.Join(dir, "missing.json"), old}, "", "fstutter: open " + filepath.Join(dir, "missing.json")},
		{"perfdiff-gate-regression", []string{"perfdiff", "-gate", old, slow}, "1 regressed", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := runCLI(t, nil, tc.args...)
			if code != 1 {
				t.Fatalf("exit %d, want 1; stderr:\n%s", code, stderr)
			}
			if !strings.Contains(stdout, tc.stdout) {
				t.Fatalf("stdout %q, want it to contain %q", stdout, tc.stdout)
			}
			if !strings.Contains(stderr, tc.stderr) {
				t.Fatalf("stderr %q, want it to contain %q", stderr, tc.stderr)
			}
		})
	}
}

// TestUsageGolden pins the text usage() prints. After an intended change,
// regenerate the golden file with
// `go build ./cmd/fstutter && ./fstutter 2> cmd/fstutter/testdata/usage.golden`.
func TestUsageGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "usage.golden"))
	if err != nil {
		t.Fatal(err)
	}
	code, _, stderr := runCLI(t, nil)
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if stderr != string(want) {
		t.Fatalf("usage text differs from testdata/usage.golden:\n%s", stderr)
	}
}

// TestCLIFlagsAfterSubcommand: flags given after the subcommand mean what
// they mean before it.
func TestCLIFlagsAfterSubcommand(t *testing.T) {
	codeA, after, stderrA := runCLI(t, nil, "run", "E01", "-quick", "-seed", "7")
	codeB, before, stderrB := runCLI(t, nil, "-quick", "-seed", "7", "run", "E01")
	if codeA != 0 || codeB != 0 {
		t.Fatalf("exits %d and %d, want 0; stderr:\n%s\n%s", codeA, codeB, stderrA, stderrB)
	}
	if after == "" || after != before {
		t.Fatalf("flags after the subcommand printed\n%s\nflags before it printed\n%s", after, before)
	}
}

// TestBenchRefusesOversubscription: `fstutter bench` must not write a
// baseline in which more threads or shards than the host has CPUs
// contend for cores. It exits 2 with a one-line reason, before
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
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "BENCH.json")
			code, _, stderr := runCLI(t, tc.env, append([]string{"bench", "-samples", "1", "-out", out}, tc.args...)...)
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
