#!/usr/bin/env bash
# Non-test product lines under crates/*/src and the facade's root src/, per
# crate and in total.
#
# A line counts when it is not blank, not a `//` comment (doc comments
# included), not in a file named `tests.rs`, and not inside a top-level
# (column-0) `#[cfg(test)]` item: an inline `mod tests {` ends the file's
# count, a gated one-line item (`mod tests;`) is skipped alone. Run it on two
# commits to compare them:
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
        FNR == 1 { in_tests = 0; gated = 0 }
        in_tests { next }
        gated { gated = 0; if (/\{[[:space:]]*$/) in_tests = 1; next }
        /^#\[cfg\(test\)\]/ { gated = 1; next }
        /^[[:space:]]*$/ { next }
        /^[[:space:]]*\/\// { next }
        { n++ }
        END { print n + 0 }
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
