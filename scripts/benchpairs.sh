#!/usr/bin/env bash
# Paired runs of the repository benchmark (BENCHMARK.json) against an older
# commit: the measurement a performance claim needs.
#
#   scripts/benchpairs.sh REF WORKLOAD [PAIRS=10] [SEED=1]
#   scripts/benchpairs.sh HEAD~1 latency30k          # ten pairs, seed 1
#   scripts/benchpairs.sh b219315 lossy30k 4 7       # four pairs, seed 7
#
# REF is unpacked with `git archive` into a temporary directory (under
# $TMPDIR) and the working tree is the change. Each pair runs
#   bash bench/run.sh --workload W --seed S --seconds 15 --trace 0
# once per side, one after the other, alternating which side goes first.
# Printed per end-to-end metric: q1/median/q3 of each side, the pairs the
# change won (ties count for neither), the change's median as a percent of
# the parent's median against the metric's `bound` in BENCHMARK.json (beyond
# bound (better), beyond bound (worse), within bound, or unresolved when a
# median inside the bound sits on a parent IQR wider than the bound and the
# change does not beat every parent run), and every run; the same report is
# written to results/pairs/<REF short sha>-<WORKLOAD>-s<SEED>.txt, the file
# to commit beside the claim. A run that is not `correct` or has `failed` > 0
# aborts the script. Nothing under bench/ is involved beyond being run; each
# checkout builds into its own .bench_build/.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 2 ]; then
  echo "usage: $0 REF WORKLOAD [PAIRS=10] [SEED=1]" >&2
  exit 2
fi
ref=$1 workload=$2 pairs=${3:-10} seed=${4:-1}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/ref"
git archive "$ref" | tar -x -C "$tmp/ref"

# run_side SIDE DIR PAIR: one contract run; appends "SIDE PAIR METRIC VALUE"
# lines to $tmp/runs.
run_side() {
  local line
  line=$(bash "$2/bench/run.sh" --workload "$workload" --seed "$seed" --seconds 15 --trace 0 2> "$tmp/stderr" | tail -n 1) || {
    cat "$tmp/stderr" >&2
    echo "benchpairs: $1 run of pair $3 exited non-zero" >&2
    exit 1
  }
  case $line in
    '{"correct":true,'*'"failed":0,'*) ;;
    *) echo "benchpairs: $1 run of pair $3 is not correct: $line" >&2; exit 1 ;;
  esac
  grep -o '"[a-z_]*":{"value":[^,]*' <<< "$line" |
    sed "s/\"\([a-z_]*\)\":{\"value\":\(.*\)/$1 $3 \1 \2/" >> "$tmp/runs"
}

for ((i = 1; i <= pairs; i++)); do
  if ((i % 2)); then order="parent change"; else order="change parent"; fi
  for side in $order; do
    if [ "$side" = parent ]; then dir=$tmp/ref; else dir=$PWD; fi
    echo "pair $i/$pairs: $side" >&2
    run_side "$side" "$dir" "$i"
  done
done

parent=$(git rev-parse --short "$ref")
{
echo "workload $workload, seed $seed, $pairs pairs, parent = $parent, change = working tree at $(git rev-parse --short HEAD)"
# The end_to_end block of BENCHMARK.json gives metric order, direction and
# bound.
awk '
  function quantile(a, n, p,    h, lo) {
    h = (n - 1) * p + 1; lo = int(h)
    return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
  }
  # sorted fills a with the runs of metric m on one side, ascending.
  function sorted(side, m, a,    n, i, j, t) {
    n = 0
    for (i = 1; i <= pairs; i++) a[++n] = val[side, i, m]
    for (i = 2; i <= n; i++)
      for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
    return n
  }
  function summary(side, m,    a, n) {
    n = sorted(side, m, a)
    return sprintf("%-7s q1 %-10.6g median %-10.6g q3 %-10.6g", side, quantile(a, n, .25), quantile(a, n, .5), quantile(a, n, .75))
  }
  # verdict compares the median change of metric m with its bound. A change
  # inside the bound is unresolved when the parent IQR is wider than the
  # bound, unless every change run beats every parent run.
  function verdict(m,    a, c, n, pm, cm, iqr, sep, pct, mark) {
    n = sorted("parent", m, a); pm = quantile(a, n, .5)
    iqr = quantile(a, n, .75) - quantile(a, n, .25)
    n = sorted("change", m, c); cm = quantile(c, n, .5)
    sep = better[m] == "lower" ? c[n] < a[1] : c[1] > a[n]
    if (pm == 0) return sprintf("median change: parent median is 0; bound %g %%", 100 * bound[m])
    pct = 100 * (cm - pm) / (pm < 0 ? -pm : pm)
    if ((pct < 0 ? -pct : pct) <= 100 * bound[m])
      mark = iqr > bound[m] * (pm < 0 ? -pm : pm) && !sep ? "unresolved (parent IQR wider than the bound)" : "within bound"
    else if ((better[m] == "lower") == (pct < 0)) mark = "beyond bound (better)"
    else mark = "beyond bound (worse)"
    return sprintf("median change %+.2f %% of the parent median, bound %g %%: %s", pct, 100 * bound[m], mark)
  }
  FNR == NR {
    if ($0 ~ /"end_to_end"/) inblock = 1
    else if (inblock && $0 ~ /^  \]/) inblock = 0
    else if (inblock && $1 == "\"name\":") { gsub(/[",]/, "", $2); names[++nm] = $2 }
    else if (inblock && $1 == "\"better\":") { gsub(/[",]/, "", $2); better[names[nm]] = $2 }
    else if (inblock && $1 == "\"bound\":") { gsub(/[",]/, "", $2); bound[names[nm]] = $2 }
    next
  }
  { val[$1, $2, $3] = $4; if ($2 > pairs) pairs = $2 }
  END {
    for (k = 1; k <= nm; k++) {
      m = names[k]; wins = 0; ties = 0; runs = ""
      for (i = 1; i <= pairs; i++) {
        p = val["parent", i, m]; c = val["change", i, m]
        if (c == p) ties++
        else if ((better[m] == "lower") == (c < p)) wins++
        runs = runs " " p "/" c
      }
      printf "%s (%s is better): change wins %d of %d, %d ties\n", m, better[m], wins, pairs, ties
      print "  " summary("parent", m)
      print "  " summary("change", m)
      print "  " verdict(m)
      print "  runs parent/change:" runs
    }
  }
' BENCHMARK.json "$tmp/runs"
} | tee "results/pairs/$parent-$workload-s$seed.txt"
