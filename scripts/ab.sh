#!/bin/sh
# Paired A/B runs of the repo's benchmark, parent checkout against change
# checkout: the protocol ROADMAP item 2 asks every performance claim to use.
#
#     scripts/ab.sh <parent-checkout> <change-checkout> [pairs]
#     scripts/ab.sh --summary <raw-file> <BENCHMARK.json>
#
# Builds `benchmark/` once per side (`--offline --release`, each into its own
# `benchmark/target`), then for every workload of the change checkout's
# BENCHMARK.json runs `pairs` (default 10) alternating pairs of the declared
# command — parent first on odd pairs, change first on even ones — and prints,
# per workload and metric, both medians with their quartiles, the pairs the
# change won (ties count for neither side) and a verdict. A run that is not
# `"correct": true` or has failed operations aborts the script. `--summary`
# prints the same table from the samples of an earlier run (AB_RAW) without
# running anything.
#
# Verdicts, first match wins; `bound` is the metric's share of the parent's
# median in BENCHMARK.json (per-layer metrics have none):
#   regressed   the change's median is worse than the parent's by more than
#               the bound;
#   unresolved  the parent's quartiles lie further apart than the bound and
#               not every change run beats every parent run;
#   exact       every run of each side read the same (", better"/", worse"
#               when the two sides differ);
#   better/worse/same, then whether the medians differ by more than the
#               parent's interquartile range (", yes"/", no").
#
# Environment: AB_SEED (default 1), AB_SECONDS (default: BENCHMARK.json's
# `run_seconds`), AB_WORKLOADS (space-separated subset; default: all),
# AB_TRACE=1 to compare the per-layer metrics of traced runs instead,
# AB_RAW=<file> to keep every sample ("workload metric side pair value").
set -eu

usage() { sed -n '2,32p' "$0" >&2; exit 2; }
[ $# -ge 2 ] || usage
summary_only=0
if [ "$1" = --summary ]; then
    [ $# -eq 3 ] || usage
    summary_only=1
    raw=$2
    spec=$3
else
    parent=$(cd "$1" && pwd)
    change=$(cd "$2" && pwd)
    pairs=${3:-10}
    spec="$change/BENCHMARK.json"
fi
seed=${AB_SEED:-1}
trace=${AB_TRACE:-0}

# BENCHMARK.json is generated with one entry per line; that layout is all
# this relies on.
command=$(sed -n 's/^ *"command": *\[\(.*\)\],*$/\1/p' "$spec" | sed 's/[",]/ /g')
seconds=${AB_SECONDS:-$(sed -n 's/^ *"run_seconds": *\([0-9.]*\).*/\1/p' "$spec")}
section() { # "name better bound" of each entry of one top-level array
    awk -v want="\"$1\":" '
        $1 == want { on = 1; next }
        on && /^ *\]/ { exit }
        on && match($0, /"name": *"[^"]*"/) {
            s = substr($0, RSTART, RLENGTH); sub(/^"name": *"/, "", s); sub(/"$/, "", s)
            better = "lower"; if ($0 ~ /"better": *"higher"/) better = "higher"
            bound = "-"
            if (match($0, /"bound": *[0-9.eE+-]+/)) { bound = substr($0, RSTART, RLENGTH); sub(/^"bound": */, "", bound) }
            print s, better, bound
        }' "$spec"
}
workloads=${AB_WORKLOADS:-$(section workloads | cut -d' ' -f1)}
if [ "$summary_only" = 1 ]; then
    metrics=$(section end_to_end; section per_layer)
elif [ "$trace" = 1 ]; then
    metrics=$(section per_layer)
else
    metrics=$(section end_to_end)
fi
[ -n "$command" ] && [ -n "$seconds" ] && [ -n "$workloads" ] && [ -n "$metrics" ] ||
    { echo "ab.sh: cannot read command/run_seconds/workloads/metrics from $spec" >&2; exit 2; }

summarise() { # prints the table of the samples in $raw
    printf '%s\n' "$metrics" | awk -v raw="$raw" -v workloads="$workloads" '
    function quantile(v, n, q,    pos, lo) { # v[1..n] sorted; linear interpolation
        pos = 1 + (n - 1) * q; lo = int(pos)
        return lo >= n ? v[n] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
    }
    function summarise(key, out,    n, i, j, t, v) {
        n = count[key]
        for (i = 1; i <= n; i++) v[i] = sample[key, i]
        for (i = 2; i <= n; i++) for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
        out["q1"] = quantile(v, n, 0.25); out["med"] = quantile(v, n, 0.5); out["q3"] = quantile(v, n, 0.75)
        out["min"] = v[1]; out["max"] = v[n]
    }
    function abs(x) { return x < 0 ? -x : x }
    { better[$1] = $2; bound[$1] = $3; order[++m] = $1 }
    END {
        while ((getline line < raw) > 0) {
            if (line ~ /^#/ || split(line, f, " ") != 5) continue
            key = f[1] SUBSEP f[2] SUBSEP f[3]
            sample[key, ++count[key]] = f[5] + 0
            by_pair[f[1], f[2], f[3], f[4]] = f[5]
            seen[f[1]] = 1
            if (f[4] + 0 > pairs) pairs = f[4] + 0
        }
        nw = split(workloads, ws, " ")
        for (a = 1; a <= nw; a++) {
            w = ws[a]
            if (!(w in seen)) continue
            printf "\n%s\n  %-28s %34s %34s %6s  %s\n", w, "metric", "parent", "change", "wins", "verdict"
            for (b = 1; b <= m; b++) {
                name = order[b]
                if (!((w SUBSEP name SUBSEP "parent") in count) || !((w SUBSEP name SUBSEP "change") in count)) continue
                summarise(w SUBSEP name SUBSEP "parent", p); summarise(w SUBSEP name SUBSEP "change", c)
                higher = better[name] == "higher"
                wins = 0; decided = 0
                for (i = 1; i <= pairs; i++) {
                    x = by_pair[w, name, "parent", i]; y = by_pair[w, name, "change", i]
                    if (x == y) continue
                    decided++
                    if (higher == (y + 0 > x + 0)) wins++
                }
                if (c["med"] == p["med"]) direction = "same"
                else direction = (higher == (c["med"] > p["med"])) ? "better" : "worse"
                worse_by = higher ? p["med"] - c["med"] : c["med"] - p["med"]
                limit = bound[name] == "-" ? "" : bound[name] * abs(p["med"])
                all_beat = higher ? c["min"] > p["max"] : c["max"] < p["min"]
                if (limit != "" && worse_by > limit) verdict = "regressed"
                else if (limit != "" && p["q3"] - p["q1"] > limit && !all_beat) verdict = "unresolved"
                else if (p["min"] == p["max"] && c["min"] == c["max"]) verdict = "exact" (direction == "same" ? "" : ", " direction)
                else if (direction == "same") verdict = "same"
                else verdict = direction (abs(c["med"] - p["med"]) > p["q3"] - p["q1"] ? ", yes" : ", no")
                printf "  %-28s %11.4f [%9.4f .. %9.4f] %11.4f [%9.4f .. %9.4f] %3d/%-2d  %s\n", \
                    name, p["med"], p["q1"], p["q3"], c["med"], c["q1"], c["q3"], wins, decided, verdict
            }
        }
    }'
}

if [ "$summary_only" = 1 ]; then
    [ -r "$raw" ] || { echo "ab.sh: cannot read $raw" >&2; exit 2; }
    echo "samples of $raw; median [q1 .. q3]; wins = pairs the change read better"
    summarise
    exit 0
fi

for side in "$parent" "$change"; do
    echo "building $side/benchmark" >&2
    CARGO_TARGET_DIR="$side/benchmark/target" cargo build --release --offline --quiet \
        --manifest-path "$side/benchmark/Cargo.toml"
done

raw=${AB_RAW:-$(mktemp)}
: >"$raw"
[ -n "${AB_RAW:-}" ] || trap 'rm -f "$raw"' EXIT

run() { # <side label> <checkout> <workload> <pair>: appends the run's samples
    line=$(cd "$2" && CARGO_TARGET_DIR="$2/benchmark/target" $command \
        --workload "$3" --seed "$seed" --seconds "$seconds" --trace "$trace" | tail -n 1)
    case $line in
    '{"correct": true,'*'"failed": 0,'*) ;;
    *) echo "ab.sh: $1 run of $3 (pair $4) is not clean: $line" >&2; exit 1 ;;
    esac
    printf '%s\n' "$line" | awk -v w="$3" -v side="$1" -v pair="$4" '{
        while (match($0, /"[A-Za-z0-9_.]+": *\{"value": *[-+0-9.eE]+/)) {
            s = substr($0, RSTART, RLENGTH); $0 = substr($0, RSTART + RLENGTH)
            name = s; sub(/^"/, "", name); sub(/".*/, "", name)
            sub(/.*"value": */, "", s)
            print w, name, side, pair, s
        }
    }' >>"$raw"
}

for w in $workloads; do
    pair=1
    while [ "$pair" -le "$pairs" ]; do
        echo "$w: pair $pair/$pairs" >&2
        if [ $((pair % 2)) -eq 1 ]; then
            run parent "$parent" "$w" "$pair"; run change "$change" "$w" "$pair"
        else
            run change "$change" "$w" "$pair"; run parent "$parent" "$w" "$pair"
        fi
        pair=$((pair + 1))
    done
done

echo "seed $seed, $seconds s, $pairs alternating pairs; median [q1 .. q3]; wins = pairs the change read better"
summarise
