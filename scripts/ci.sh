#!/usr/bin/env bash
# CI lanes. Run all of them before merging:
#
#   scripts/ci.sh            # every lane
#   scripts/ci.sh test       # tier-1 only: format/vet/script-syntax gate + build + test
#   scripts/ci.sh race       # full suite under the race detector
#   scripts/ci.sh benchsmoke # compile + one iteration of every benchmark
#   scripts/ci.sh fuzzsmoke  # short fuzzing pass over codec + protocol + ID sets and tables + scenarios
#   scripts/ci.sh cover      # coverage floors (protocol >= 85%, experiments >= 70%, total >= 70%)
#   scripts/ci.sh oracle     # the convergence oracle at 100k peers (-tags oracle; tier-1 runs it at 10k)
#                            # and the golden check of all 25 default results/ files (tier-1: the figures)
#   scripts/ci.sh adversarialsmoke # cheap adversarial scenarios + oracles under -race
#                                  # (a quick subset of race; the every-lane run skips it)
set -euo pipefail
cd "$(dirname "$0")/.."

lane_test() {
  echo "== lane: build + test =="
  unformatted=$(gofmt -l .)
  if [ -n "$unformatted" ]; then
    echo "gofmt: the following files are not formatted:" >&2
    echo "$unformatted" >&2
    exit 1
  fi
  for script in scripts/*.sh; do bash -n "$script"; done
  # Every repo path the docs name must exist. A name may be a glob; a
  # trailing .Symbol is a Go identifier, not part of the path.
  while read -r path; do
    if ! compgen -G "$path" > /dev/null && ! compgen -G "${path%.*}" > /dev/null; then
      echo "docs: README/DESIGN/EXPERIMENTS name $path, which does not exist" >&2
      exit 1
    fi
  done < <(grep -ohE '\b(cmd|examples|internal|results|scripts)/[A-Za-z0-9_/*.-]*[A-Za-z0-9_*]' \
    README.md DESIGN.md EXPERIMENTS.md | sort -u)
  # Every backticked package-qualified Go name the docs use, such as
  # `protocol.Exchange` or `overlay.Link.Draw`, must resolve in that
  # internal package.
  pkgs=$(basename -a internal/*/ | paste -sd'|' -)
  while read -r name; do
    if ! go doc "dlm/internal/${name%%.*}" "${name#*.}" > /dev/null 2>&1; then
      echo "docs: README/DESIGN/EXPERIMENTS name \`$name\`, which go doc cannot resolve" >&2
      exit 1
    fi
  done < <(grep -ohE "\`($pkgs)\.[A-Z][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*\`" \
    README.md DESIGN.md EXPERIMENTS.md | tr -d '`' | sort -u)
  # Every "DESIGN.md §N" in a Go or Markdown file must name a section
  # DESIGN.md has. CHANGES.md and ISSUE.md are exempt: they describe the
  # tree as it was when they were written.
  while IFS= read -r ref; do
    n=${ref##*§}
    if ! grep -q "^## ${n# }\. " DESIGN.md; then
      echo "docs: $ref, but DESIGN.md has no such section" >&2
      exit 1
    fi
  done < <(grep -rnoE --include='*.go' --include='*.md' --exclude=CHANGES.md --exclude=ISSUE.md \
    --exclude-dir=.git --exclude-dir=.bench_build 'DESIGN\.md § ?[0-9]+' .)
  go build ./...
  go vet ./...
  # The protocol core must stay transport-agnostic: its import graph may
  # not reach the simulation engine or the overlay (see
  # internal/protocol/purity_test.go for the direct-import check; this
  # one is transitive).
  deps=$(go list -deps dlm/internal/protocol)
  for forbidden in dlm/internal/sim dlm/internal/overlay; do
    if echo "$deps" | grep -qx "$forbidden"; then
      echo "import purity: dlm/internal/protocol depends on $forbidden" >&2
      exit 1
    fi
  done
  go test ./...
  # overlay.Network.Send hands each copy to a pooled carrier because &m
  # would escape through deliver's interface call and put every Send on
  # the heap; the escape analysis must keep the message on the stack.
  escaped=$(go build -gcflags=-m ./internal/overlay 2>&1 | grep 'moved to heap: m$' || true)
  if [ -n "$escaped" ]; then
    echo "escape: overlay's message moved to the heap:" >&2
    echo "$escaped" >&2
    exit 1
  fi
  # ROADMAP item 12's claim on the §6 overhead study: DLM traffic is at
  # most 11 % of messages. The golden check ties results/overhead.txt to
  # the code; this holds the committed file to the claim.
  if ! awk '/^DLM share:/ { found = 1; ok = $3 + 0 <= 11 } END { exit !(found && ok) }' results/overhead.txt; then
    echo "overhead: results/overhead.txt puts the DLM share above 11 % of messages" >&2
    grep '^DLM share:' results/overhead.txt >&2 || true
    exit 1
  fi
  # The tick's collect scan calls these once per peer per tick, in both
  # planes; a call that stops inlining costs every peer a call frame.
  inlined=$(go build -gcflags=-m ./internal/protocol 2>&1)
  for fn in RefreshDue PendingRequests; do
    if ! grep -qE "can inline \(\*Machine\)\.$fn\$" <<< "$inlined"; then
      echo "inline: (*protocol.Machine).$fn no longer inlines" >&2
      exit 1
    fi
  done
  # The trace pipeline as cmd/dlmtrace documents it: dlmsim writes a trace
  # file and dlmtrace summarizes it (an empty trace fails). The same run
  # drives the search plane (catalog, index, flood) end to end: its
  # queries: line must report some success.
  trace_tmp=$(mktemp)
  trap 'rm -f "$trace_tmp"' RETURN
  report=$(go run ./cmd/dlmsim -n 300 -duration 300 -queries 5 -trace "$trace_tmp")
  go run ./cmd/dlmtrace "$trace_tmp" > /dev/null
  if ! awk '/^queries:/ { found = 1; ok = $4 + 0 > 0 } END { exit !(found && ok) }' <<< "$report"; then
    echo "dlmsim -queries 5: no query succeeded" >&2
    grep '^queries:' <<< "$report" >&2 || true
    exit 1
  fi
  # README's quickstart transcript, the fenced block tagged
  # `text examples/quickstart`, is the program's own output: a run that
  # prints anything else fails the lane.
  if ! diff <(awk '/^```text examples\/quickstart$/ { on = 1; next } on && /^```$/ { exit } on' README.md) \
      <(go run ./examples/quickstart); then
    echo "README: the examples/quickstart transcript differs from a run (diff above: < README, > run)" >&2
    exit 1
  fi
  # The goroutine plane end to end: one second of 60 live peers under churn.
  go run ./cmd/dlmlive -peers 60 -seconds 1 -churn > /dev/null
  # The benchmark harness is its own module (bench/go.mod); ./... above
  # does not reach it.
  go vet -C bench ./...
  go test -C bench ./...
}

lane_race() {
  echo "== lane: race =="
  go test -race ./...
  # The goroutine plane three more times: its lock order and its one-owner
  # RNG rule are checked by the detector only on the runs that interleave.
  go test -race -count=3 ./internal/live/
  # The tick's collect scan writes each due leaf's refresh stamp from a
  # parallel lane; the shard matrix runs it at K = 2, 4 and 7.
  go test -race -count=3 -run 'ShardInvariance' ./internal/core/
}

lane_benchsmoke() {
  echo "== lane: bench smoke (1 iteration each) =="
  go test -run='^$' -bench=. -benchtime=1x ./...
}

lane_fuzzsmoke() {
  echo "== lane: fuzz smoke (5s each) =="
  go test -run='^$' -fuzz='^FuzzDecode$' -fuzztime=5s ./internal/msg/
  go test -run='^$' -fuzz='^FuzzMachineHandleMessage$' -fuzztime=5s ./internal/protocol/
  go test -run='^$' -fuzz='^FuzzPendingFaults$' -fuzztime=5s ./internal/protocol/
  go test -run='^$' -fuzz='^FuzzSet$' -fuzztime=5s ./internal/flatidx/
  go test -run='^$' -fuzz='^FuzzTable$' -fuzztime=5s ./internal/flatidx/
  go test -run='^$' -fuzz='^FuzzScenarioConfig$' -fuzztime=5s ./internal/scenario/
}

lane_adversarialsmoke() {
  echo "== lane: adversarial smoke (quick scenarios, oracles, -race) =="
  # The two cheapest pack scenarios at n=5000, serial and 4-sharded, with
  # the structural-invariant and trace-determinism oracles checked; -race
  # guards the lane because the sharded tick is the one concurrent path.
  go test -race -run '^TestAdversarialSmoke$|^TestScenarioShardDeterminism$' \
    ./internal/scenario/
}

lane_oracle() {
  echo "== lane: convergence oracle at 100k peers, golden results/ files =="
  # Same tests and bounds as tier-1; the build tag swaps the population
  # (internal/scenario/oracle_on_test.go) and widens the golden check from
  # the figures to every artifact `dlmbench` writes by default
  # (cmd/dlmbench/golden_on_test.go).
  go test -tags oracle -run '^TestConvergenceOracle$' ./internal/scenario/
  go test -tags oracle -run '^TestGoldenFigures$' ./cmd/dlmbench/
}

# pct_at_least PCT FLOOR LABEL: fail the lane when PCT < FLOOR.
pct_at_least() {
  awk -v got="$1" -v floor="$2" -v label="$3" 'BEGIN {
    if (got + 0 < floor + 0) {
      printf "coverage: %s is %.1f%%, floor is %.1f%%\n", label, got, floor > "/dev/stderr"
      exit 1
    }
    printf "coverage: %s %.1f%% (floor %.1f%%)\n", label, got, floor
  }'
}

# pkg_pct LOG PKG: the coverage percentage on PKG's "ok" line of a
# `go test -cover` log.
pkg_pct() {
  awk -v pkg="$2" '$1 == "ok" && $2 == pkg { sub(/%/, "", $5); print $5 }' "$1"
}

lane_cover() {
  echo "== lane: coverage floors =="
  tmp=$(mktemp -d)
  trap 'rm -rf "$tmp"' RETURN
  # One pass: each package's own-tests coverage is on its "ok" line, the
  # repo-wide figure is the profile's total.
  go test -short -coverprofile="$tmp/all.out" ./... > "$tmp/log"
  # The protocol core is the correctness-critical package; it carries a
  # higher floor than the repo-wide one.
  pct_at_least "$(pkg_pct "$tmp/log" dlm/internal/protocol)" 85 "internal/protocol"
  # The experiment drivers gained their own floor with the adversarial
  # pack: the sweep/format paths must stay exercised in short mode.
  pct_at_least "$(pkg_pct "$tmp/log" dlm/internal/experiments)" 70 "internal/experiments"
  total_pct=$(go tool cover -func="$tmp/all.out" | awk '/^total:/ {sub(/%/, "", $3); print $3}')
  pct_at_least "$total_pct" 70 "total"
}

case "${1:-all}" in
  test)             lane_test ;;
  race)             lane_race ;;
  benchsmoke)       lane_benchsmoke ;;
  fuzzsmoke)        lane_fuzzsmoke ;;
  cover)            lane_cover ;;
  oracle)           lane_oracle ;;
  adversarialsmoke) lane_adversarialsmoke ;;
  # lane_race's full sweep already ran adversarialsmoke's two tests under -race.
  all)              lane_test; lane_race; lane_benchsmoke; lane_fuzzsmoke; lane_cover; lane_oracle ;;
  *)                echo "usage: $0 [test|race|benchsmoke|fuzzsmoke|cover|oracle|adversarialsmoke|all]" >&2; exit 2 ;;
esac
echo "ci: all requested lanes green"
