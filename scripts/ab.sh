#!/usr/bin/env bash
# A/B run of the repository benchmark: a parent commit against the
# working tree, judged by the rule a performance claim has to meet.
#
#   scripts/ab.sh PARENT [WORKLOAD...]
#
# PARENT is any commit-ish. WORKLOADs default to every workload in
# BENCHMARK.json. It always runs 10 pairs, the fewest the rule accepts.
#
# Both sides are built, one after the other, in one fixed directory,
# ${TMPDIR:-/tmp}/leaksig-ab-build, removed on exit: first the parent's
# committed files (`git archive`), then the working tree's files as they
# are on disk (`git ls-files`: tracked, plus untracked ones not ignored),
# each from a clean target directory, each binary copied out to a
# temporary directory and run from there. Cargo hashes every path
# package's location into its symbols (`-C metadata`), so the same
# sources built at two paths give different machine code; at one path, a
# change that leaves the benchmark's code alone yields an identical
# `.text`, in this run and in every later one. An export needs no
# worktree registered in .git, so an interrupted run leaves nothing
# behind in the repository; a killed one can leave the build directory,
# which the next run refuses to reuse until it is removed.
# Pair k runs both sides with `--seed k --seconds 20 --trace 0`, the
# order alternating from pair to pair so slow host spells fall on both.
#
# For each workload and end-to-end metric it prints each side's median
# and quartiles, the change against the parent's median and the parent's
# interquartile range (both as shares of the parent's median), how many
# pairs the change won, and a verdict:
#   gain        wins >= 9 of 10 pairs (90%), the median gap exceeds the
#               parent's IQR, and the change's median share of failed
#               operations (`failed / attempted` of the result line) is
#               no larger than the parent's;
#   WORSE       the median is worse than the parent's by more than the
#               metric's bound in BENCHMARK.json;
#   unresolved  the parent's IQR is wider than the bound, so its runs
#               spread too widely to tell, unless every change run beats
#               (or every one loses to) every parent run;
#   -           none of these.
# Then it prints each side's median failed/attempted counts and each
# pair's peak_rss_mb. A run whose output check fails aborts the script.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -lt 1 ]]; then
    echo "usage: scripts/ab.sh PARENT [WORKLOAD...]" >&2
    exit 2
fi
PARENT="$1"
shift
PAIRS=10
SECONDS_PER_RUN=20

# Section `$1` of BENCHMARK.json as `name better bound` lines (workloads
# have neither of the last two).
spec() {
    awk -v section="\"$1\"" '
        index($0, section) { on = 1; next }
        on && /^  \]/ { exit }
        on && /"name"/ { gsub(/[",]/, "", $2); name = $2 }
        on && /"better"/ { gsub(/[",]/, "", $2); better = $2 }
        on && /"bound"/ { gsub(/[",]/, "", $2); bound = $2 }
        on && /^    \}/ { print name, better, bound; name = better = bound = "" }
    ' BENCHMARK.json
}

if [[ $# -gt 0 ]]; then
    WORKLOADS=("$@")
else
    mapfile -t WORKLOADS < <(spec workloads | awk '{ print $1 }')
fi

WORK="$(mktemp -d "${TMPDIR:-/tmp}/leaksig-ab.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT
BUILD="${TMPDIR:-/tmp}/leaksig-ab-build"
if ! mkdir "$BUILD" 2>/dev/null; then
    echo "$BUILD exists: another scripts/ab.sh is building there, or a killed one left it behind" >&2
    exit 1
fi
trap 'rm -rf "$WORK" "$BUILD"' EXIT

# The working tree's files as they are on disk, as a tar stream.
working_tree() {
    git ls-files -z --cached --others --exclude-standard |
        while IFS= read -r -d '' f; do
            if [[ -e "$f" ]]; then printf '%s\0' "$f"; fi
        done |
        tar --null -T - -cf -
}

# build <side> <command...>: unpack the tar stream the command writes into
# the emptied $BUILD, build the benchmark there and keep the binary as
# $WORK/<side>/leaksig-benchmark.
build() {
    local side="$1"
    shift
    echo "==> building the $side benchmark" >&2
    find "$BUILD" -mindepth 1 -delete
    mkdir "$WORK/$side"
    "$@" | tar -x -C "$BUILD"
    cargo build --release --offline --quiet --manifest-path "$BUILD/benchmark/Cargo.toml"
    cp "$BUILD/benchmark/target/release/leaksig-benchmark" "$WORK/$side/"
}
build parent git archive "$PARENT"
build change working_tree
rm -rf "$BUILD"

# run <side> <workload> <pair>: one benchmark run; appends
# `workload pair side metric value` lines to the results file, with the
# result line's `attempted` and `failed` counts as two more metrics.
run() {
    local side="$1" workload="$2" pair="$3" last
    last="$(cd "$WORK/$side" && ./leaksig-benchmark \
        --workload "$workload" --seed "$pair" --seconds "$SECONDS_PER_RUN" --trace 0 \
        2>/dev/null | tail -n 1)" || true
    if [[ "$last" != *'"correct": true'* ]]; then
        echo "$side $workload seed $pair: output check failed: $last" >&2
        exit 1
    fi
    {
        sed 's/^.*"attempted": \([0-9]*\), "failed": \([0-9]*\).*$/attempted \1\nfailed \2/' <<<"$last"
        sed 's/^.*"metrics": {//; s/}}$//; s/}, /\n/g' <<<"$last" |
            sed -n 's/^"\([a-z0-9_.]*\)": {"value": \([-0-9.e+]*\).*/\1 \2/p'
    } |
        awk -v w="$workload" -v k="$pair" -v s="$side" '{ print w, k, s, $1, $2 }' \
            >>"$WORK/results"
}

for workload in "${WORKLOADS[@]}"; do
    for ((k = 1; k <= PAIRS; k++)); do
        echo "==> $workload pair $k/$PAIRS" >&2
        if ((k % 2)); then
            run parent "$workload" "$k"
            run change "$workload" "$k"
        else
            run change "$workload" "$k"
            run parent "$workload" "$k"
        fi
    done
done

echo
echo "$PARENT (parent) vs working tree, $PAIRS pairs, --seconds $SECONDS_PER_RUN"
spec end_to_end | awk -v workloads="${WORKLOADS[*]}" '
    NR == FNR {
        v[$1, $2, $3, $4] = $5
        next
    }
    { metric[++m] = $1; better[$1] = $2; bound[$1] = $3 }
    # The q-quantile of a[1..n], sorted in place, interpolated linearly.
    function quantile(a, n, q,    i, j, t, x) {
        for (i = 2; i <= n; i++)
            for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
        x = 1 + q * (n - 1)
        i = int(x)
        return i >= n ? a[n] : a[i] + (x - i) * (a[i + 1] - a[i])
    }
    function max1(x) { return x > 1 ? x : 1 }
    # The median over the pairs of `name` on `side` of workload `wl`.
    function med(wl, side, name,    a, k) {
        for (k = 1; (wl, k, side, name) in v; k++) a[k] = v[wl, k, side, name]
        return quantile(a, k - 1, 0.5)
    }
    END {
        nw = split(workloads, w, " ")
        for (wi = 1; wi <= nw; wi++) {
            # Median share of failed operations, per side.
            n = 0; delete p; delete c
            for (k = 1; (w[wi], k, "parent", "failed") in v; k++) {
                p[k] = v[w[wi], k, "parent", "failed"] / max1(v[w[wi], k, "parent", "attempted"])
                c[k] = v[w[wi], k, "change", "failed"] / max1(v[w[wi], k, "change", "attempted"])
                n = k
            }
            if (n == 0) continue
            more_failed = quantile(c, n, 0.5) > quantile(p, n, 0.5)
            printf "\n%s\n", w[wi]
            printf "  %-16s %28s %28s %8s %7s %6s  %s\n", "metric", "parent p25/median/p75",
                "change p25/median/p75", "change", "IQR", "wins", "verdict"
            for (mi = 1; mi <= m; mi++) {
                name = metric[mi]
                n = 0; wins = 0; delete p; delete c
                sign = better[name] == "higher" ? 1 : -1
                for (k = 1; (w[wi], k, "parent", name) in v; k++) {
                    p[k] = v[w[wi], k, "parent", name]
                    c[k] = v[w[wi], k, "change", name]
                    if (sign * (c[k] - p[k]) > 0) wins++
                    n = k
                }
                if (n == 0) continue
                p25 = quantile(p, n, 0.25); pm = quantile(p, n, 0.5); p75 = quantile(p, n, 0.75)
                c25 = quantile(c, n, 0.25); cm = quantile(c, n, 0.5); c75 = quantile(c, n, 0.75)
                gap = pm == 0 ? 0 : (cm - pm) / pm
                iqr = pm == 0 ? 0 : (p75 - p25) / pm
                # p and c are sorted now; `apart`: no run of one side lies
                # inside the range of the other side.
                apart = c[1] > p[n] || c[n] < p[1]
                verdict = "-"
                if (wins * 10 >= 9 * n && sign * gap > iqr && !more_failed) verdict = "gain"
                if (-sign * gap > bound[name]) verdict = "WORSE"
                if (iqr > bound[name] && !apart) verdict = "unresolved"
                printf "  %-16s %9.4g/%9.4g/%9.4g %9.4g/%9.4g/%9.4g %+7.1f%% %6.1f%% %3d/%-2d  %s\n",
                    name, p25, pm, p75, c25, cm, c75, 100 * gap, 100 * iqr, wins, n, verdict
            }
            printf "  failed/attempted median: parent %g/%g, change %g/%g%s\n",
                med(w[wi], "parent", "failed"), med(w[wi], "parent", "attempted"),
                med(w[wi], "change", "failed"), med(w[wi], "change", "attempted"),
                more_failed ? " (change fails a larger share: no gain)" : ""
            printf "  peak_rss_mb per pair (parent/change):"
            for (k = 1; (w[wi], k, "parent", "peak_rss_mb") in v; k++)
                printf " %g/%g", v[w[wi], k, "parent", "peak_rss_mb"], v[w[wi], k, "change", "peak_rss_mb"]
            printf "\n"
        }
    }
' "$WORK/results" -
