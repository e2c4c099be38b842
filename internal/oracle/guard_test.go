package oracle

import (
	"errors"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// testOnly lists the packages that only _test.go files may import. They
// may import each other.
var testOnly = map[string]bool{
	"repro/internal/oracle": true,
	"repro/internal/simref": true,
}

// TestOracleIsTestOnly fails when the program links a test-only package:
// any non-test package, cmd/ binary or examples/ program of the module, or
// of the perfbench module beside it, whose build dependencies include one.
// Test imports are not build dependencies, so tests stay free to use them.
func TestOracleIsTestOnly(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{root, filepath.Join(root, "perfbench")} {
		pkgs := listDeps(t, dir)
		if len(pkgs) == 0 {
			t.Fatalf("go list found no packages under %s", dir)
		}
		for pkg, deps := range pkgs {
			if testOnly[pkg] {
				continue
			}
			for _, d := range deps {
				if testOnly[d] {
					t.Errorf("%s links test-only package %s", pkg, d)
				}
			}
		}
	}
}

// listDeps maps every package of the module rooted at dir to its
// transitive non-test dependencies, as go list reports them.
func listDeps(t *testing.T, dir string) map[string][]string {
	t.Helper()
	cmd := exec.Command(filepath.Join(runtime.GOROOT(), "bin", "go"), "list",
		"-f", "{{.ImportPath}}{{range .Deps}} {{.}}{{end}}", "./...")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			t.Fatalf("go list in %s: %v\n%s", dir, err, ee.Stderr)
		}
		t.Fatalf("go list in %s: %v", dir, err)
	}
	pkgs := make(map[string][]string)
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			pkgs[f[0]] = f[1:]
		}
	}
	return pkgs
}
