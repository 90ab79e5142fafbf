#!/usr/bin/env bash
# Prints non-test source lines per crate and the workspace total.
#
# Usage: scripts/loc.sh [ROOT]
#
# The rule: every `crates/*/src/*.rs` file counts from its first line up
# to, not including, its first line that starts with `#[cfg(test` or
# `#[cfg(all(test`; a file with no such line counts whole. ROOT defaults
# to the checkout holding this script, so the same script can count a
# second tree (`scripts/loc.sh ../other-checkout`) for a before/after
# table.
set -eu

root="${1:-$(dirname "$0")/..}"

total=0
for dir in "$root"/crates/*/; do
    crate=$(basename "$dir")
    n=0
    for f in "$dir"src/*.rs; do
        [ -e "$f" ] || continue
        lines=$(awk '/^#\[cfg\((all\()?test/ { exit } { n++ } END { print n + 0 }' "$f")
        n=$((n + lines))
    done
    printf '%-8s %6d\n' "$crate" "$n"
    total=$((total + n))
done
printf '%-8s %6d\n' total "$total"
