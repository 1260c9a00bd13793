package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule lays out a throwaway single-package module for the
// front-end to chew on and returns its root.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module fixmod\n\ngo 1.24\n"
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// droppedCtx is a real ctxflow violation: context.Background()
// conjured while ctx is in scope.
const droppedCtx = `package fixmod

import "context"

func outer(ctx context.Context, keys chan string) {
	inner(context.Background(), keys)
}

func inner(ctx context.Context, keys chan string) {
	select {
	case <-ctx.Done():
	case <-keys:
	}
}
`

// TestGate pins the front-end's contract with `make lint`: a finding
// prints and exits 1, and the same finding under a reasoned
// //detlint:allow exits 0. Each row gets its own module, so the
// process-wide load cache never serves one row's tree to another.
func TestGate(t *testing.T) {
	allowed := strings.Replace(droppedCtx, "inner(context.Background(), keys)\n",
		"inner(context.Background(), keys) //detlint:allow ctxflow detached on purpose\n", 1)
	if allowed == droppedCtx {
		t.Fatal("fixture edit did not apply")
	}
	for _, tc := range []struct {
		name, src string
		code      int // 1 exactly when the finding must be printed
	}{
		{"finding fails", droppedCtx, 1},
		{"allowed finding passes", allowed, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := writeModule(t, map[string]string{"flow.go": tc.src})
			var stdout, stderr bytes.Buffer
			if code := run([]string{"-C", dir, "fixmod"}, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit %d, want %d\nstdout: %s\nstderr: %s", code, tc.code, stdout.String(), stderr.String())
			}
			const msg = "flow.go:6:8: ctxflow: context.Background() discards the received ctx"
			if got, want := strings.Contains(stdout.String(), msg), tc.code == 1; got != want {
				t.Fatalf("finding printed = %v, want %v:\n%s", got, want, stdout.String())
			}
		})
	}
}
