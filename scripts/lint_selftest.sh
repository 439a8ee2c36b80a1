#!/usr/bin/env sh
# lint_selftest.sh — proves the lint gate actually gates.
#
# Copies the module into a scratch directory and drives dnnlint through its
# whole contract:
#
#   - the pristine copy exits 0;
#   - one seeded violation per representative analyzer (detrange, allocfree,
#     goroleak, httpcontract, staleplan) makes dnnlint exit 1 with the right
#     finding;
#   - a well-formed //lint:ignore directive silences a seeded finding
#     (exit 0) while a bare directive without a reason is itself reported
#     (exit 1 with a `suppress` finding);
#   - a file that fails to type-check exits 2 (load error), not 1.
#
# If an analyzer ever regresses to finding nothing, or the exit codes
# conflate findings with load failures, this script fails `make verify`
# instead of letting the gate silently pass everything.
set -eu

cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT INT TERM

# Copy the module without VCS metadata.
tar --exclude .git -cf - . | (cd "$tmp" && tar -xf -)

# Build the driver once and invoke the binary directly: `go run` collapses
# every non-zero child status to its own exit 1, which would hide the very
# findings-vs-load-error distinction this script asserts.
bin="$tmp/dnnlint.bin"
(cd "$tmp" && go build -o "$bin" ./cmd/dnnlint)

# lint runs dnnlint in the scratch module and records its exit code in $rc.
lint() {
    rc=0
    (cd "$tmp" && "$bin" "$@") >"$tmp/lint.out" 2>&1 || rc=$?
}

fail() {
    echo "lint_selftest: FAIL — $1" >&2
    cat "$tmp/lint.out" >&2
    exit 1
}

require_rc() { # expected-exit-code description
    [ "$rc" -eq "$1" ] || fail "$2 (exit $rc, want $1)"
}

require_finding() { # pattern description
    grep -q "$1" "$tmp/lint.out" || fail "$2"
}

# --- 0. The pristine copy lints clean: exit 0.
lint ./...
require_rc 0 "pristine module did not lint clean"

# --- 1. detrange: float fold over an unsorted map range.
cat > "$tmp/internal/core/seeded_violation.go" <<'EOF'
package core

// seededLintViolation exists only while scripts/lint_selftest.sh runs: it
// folds floats in map-iteration order, which dnnlint must report.
func seededLintViolation(m map[string]float64) float64 {
	var total float64
	for _, v := range m {
		total += v
	}
	return total
}
EOF
lint ./internal/core
require_rc 1 "seeded detrange violation not reported as findings"
require_finding detrange "dnnlint failed without a detrange finding"

# --- 1a. A well-formed suppression silences the seed: exit 0.
cat > "$tmp/internal/core/seeded_violation.go" <<'EOF'
package core

// seededLintViolation carries a well-formed suppression directive.
func seededLintViolation(m map[string]float64) float64 {
	var total float64
	for _, v := range m {
		//lint:ignore detrange selftest: directive with a reason must suppress
		total += v
	}
	return total
}
EOF
lint ./internal/core
require_rc 0 "well-formed //lint:ignore did not suppress the seeded finding"

# --- 1b. A bare directive (no reason) is itself a finding and suppresses
# nothing: exit 1 with both `suppress` and the surviving detrange finding.
cat > "$tmp/internal/core/seeded_violation.go" <<'EOF'
package core

// seededLintViolation carries a malformed (reason-less) directive.
func seededLintViolation(m map[string]float64) float64 {
	var total float64
	for _, v := range m {
		//lint:ignore detrange
		total += v
	}
	return total
}
EOF
lint ./internal/core
require_rc 1 "bare //lint:ignore did not fail the gate"
require_finding suppress "bare directive not reported as a suppress finding"
require_finding detrange "bare directive wrongly suppressed the seeded finding"
rm "$tmp/internal/core/seeded_violation.go"

# --- 2. allocfree: un-evidenced append inside an annotated function.
cat > "$tmp/internal/core/seeded_violation.go" <<'EOF'
package core

// seededAllocViolation grows a slice with no preallocation evidence on a
// declared alloc-free path.
//
//dnnperf:allocfree
func seededAllocViolation(xs []int, v int) []int {
	return append(xs, v)
}
EOF
lint ./internal/core
require_rc 1 "seeded allocfree violation not reported as findings"
require_finding allocfree "dnnlint failed without an allocfree finding"
rm "$tmp/internal/core/seeded_violation.go"

# --- 3. goroleak: goroutine with no termination path.
cat > "$tmp/internal/core/seeded_violation.go" <<'EOF'
package core

// seededGoroutineLeak spawns an unbounded loop with no cancellation and no
// join in the spawner.
func seededGoroutineLeak(ch chan int) {
	go func() {
		for {
			ch <- 1
		}
	}()
}
EOF
lint ./internal/core
require_rc 1 "seeded goroleak violation not reported as findings"
require_finding goroleak "dnnlint failed without a goroleak finding"
rm "$tmp/internal/core/seeded_violation.go"

# --- 4. httpcontract: uncapped body read plus a double status commit.
cat > "$tmp/cmd/dnnperf/seeded_violation.go" <<'EOF'
package main

import (
	"io"
	"net/http"
)

// seededContractViolation reads an uncapped body and commits the status
// twice.
func seededContractViolation(w http.ResponseWriter, req *http.Request) {
	b, _ := io.ReadAll(req.Body)
	w.WriteHeader(http.StatusOK)
	w.WriteHeader(http.StatusInternalServerError)
	_, _ = w.Write(b)
}
EOF
lint ./cmd/dnnperf
require_rc 1 "seeded httpcontract violation not reported as findings"
require_finding httpcontract "dnnlint failed without an httpcontract finding"
rm "$tmp/cmd/dnnperf/seeded_violation.go"

# --- 5. staleplan: an in-place mutator on a fitted KWModel. Plans compiled
# from the old mapping table would keep serving; only the fitting
# constructors may write coefficients.
cat > "$tmp/internal/core/seeded_violation.go" <<'EOF'
package core

import "repro/internal/dataset"

// ObserveRecords exists only while scripts/lint_selftest.sh runs: it grows
// a fitted model's mapping table in place.
func (m *KWModel) ObserveRecords(recs []dataset.KernelRecord) {
	for _, r := range recs {
		m.Mapping[r.LayerSignature] = []string{r.Kernel}
	}
}
EOF
lint ./internal/core
require_rc 1 "seeded staleplan violation not reported as findings"
require_finding staleplan "dnnlint failed without a staleplan finding"
rm "$tmp/internal/core/seeded_violation.go"

# --- 6. A file that does not type-check is a load error: exit 2, not 1.
cat > "$tmp/internal/core/seeded_violation.go" <<'EOF'
package core

func seededTypeError() int { return "not an int" }
EOF
lint ./internal/core
require_rc 2 "type-check failure did not exit with the load-error status"
require_finding "failed to load" "load failure not reported on stderr"
rm "$tmp/internal/core/seeded_violation.go"

echo "lint_selftest: ok (exit codes 0/1/2, five seeded analyzers, suppression contract)"
