package lint

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestKeyPackagesAvoidMathRand: the privacy argument (paper §4.2) holds
// only if permutation and partition keys, Paillier randomness and
// attestation nonces come from internal/rng's keyed stream or crypto/rand,
// so no non-test file of these packages imports math/rand (v1 or v2). The
// transport's fault and latency simulation and its backoff jitter use
// seeded math/rand on purpose, where reproducibility is the point.
func TestKeyPackagesAvoidMathRand(t *testing.T) {
	allowed := map[string]bool{"transport/fault.go": true, "transport/latency.go": true, "transport/dial.go": true}
	for _, pkg := range []string{"rng", "paillier", "attest", "sev", "core", "transport"} {
		files, err := filepath.Glob(filepath.Join("..", pkg, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no Go files in internal/%s (%v)", pkg, err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") || allowed[pkg+"/"+filepath.Base(path)] {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); p == "math/rand" || p == "math/rand/v2" {
					t.Errorf("%s imports %s: use internal/rng or crypto/rand", path, p)
				}
			}
		}
	}
}
