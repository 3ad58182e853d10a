#!/usr/bin/env bash
# Non-test product lines under crates/*/src and the facade's root src/, per
# crate and in total.
#
# A line counts when it is not blank, not a `//` comment (doc comments
# included), not in a file named `tests.rs`, and not inside a top-level
# (column-0) `#[cfg(test)]` item: a gated inline `mod … {` ends the file's
# count, any other gated item that opens a block (a test-only `fn … {`) is
# skipped through its column-0 `}`, and a gated one-line item (`mod tests;`)
# is skipped alone. A file that ends inside a skipped item makes the script
# exit 1, so a counting bug fails loudly instead of undercounting. A last line
# counts the lines that still name a product oracle path (`PerBlock`,
# `IoMode::Blocking`, `TTable`) in the same crates' sources outside files
# named `tests.rs`, inline test modules included; the pattern is fixed so
# that any two commits compare. Run it on two commits to compare them:
#
#     scripts/loc.sh                 # every crate + the facade + total
#     scripts/loc.sh -v lamassu-core # that crate, with a per-file breakdown
set -euo pipefail
cd "$(dirname "$0")/.."

verbose=0
if [[ "${1:-}" == "-v" ]]; then
    verbose=1
    shift
fi

count() {
    awk '
        function unterminated() {
            printf "loc.sh: %s ends inside a gated item\n", file > "/dev/stderr"
            bad = 1
        }
        FNR == 1 { if (skipping) unterminated(); file = FILENAME; in_tests = 0; gated = 0; skipping = 0 }
        in_tests { next }
        skipping { if (/^}/) skipping = 0; next }
        gated && /^#\[/ { next }
        gated {
            gated = 0
            if (/^(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+ *\{[[:space:]]*$/) in_tests = 1
            else if (/\{[[:space:]]*$/) skipping = 1
            next
        }
        /^#\[cfg\(test\)\]/ { gated = 1; next }
        /^[[:space:]]*$/ { next }
        /^[[:space:]]*\/\// { next }
        { n++ }
        END { if (skipping) unterminated(); print n + 0; exit bad }
    ' "$@"
}

total=0
dirs=(crates/${1:-*}/src)
if [[ -z "${1:-}" ]]; then
    dirs+=(src)
fi
for dir in "${dirs[@]}"; do
    mapfile -t files < <(find "$dir" -name '*.rs' ! -name 'tests.rs' | sort)
    n=$(count "${files[@]}")
    printf '%7d  %s\n' "$n" "$dir"
    if ((verbose)); then
        for f in "${files[@]}"; do
            printf '%7d    %s\n' "$(count "$f")" "${f#"$dir"/}"
        done
    fi
    total=$((total + n))
done
printf '%7d  total\n' "$total"
oracles=$({ grep -rE --include='*.rs' --exclude='tests.rs' \
    'PerBlock|IoMode::Blocking|TTable' crates/${1:-*}/src || true; } | wc -l)
printf '%7d  oracle references (PerBlock|IoMode::Blocking|TTable)\n' "$oracles"
