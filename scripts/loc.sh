#!/usr/bin/env sh
# Non-test source lines per crate: every line of each `crates/*/src`
# file (binaries included) up to its first top-level `#[cfg(test)]`.
# Prints one `crate lines` row per crate, then the `xac-core` +
# `xac-serve` sum and the total. Reports only; it gates nothing.
# Run from the repository root.
set -eu

total=0
for dir in crates/*/; do
    crate=$(basename "$dir")
    n=$(find "$dir/src" -name '*.rs' | sort | while read -r f; do
        awk '/^#\[cfg\(test\)\]/{exit} {n++} END{print n+0}' "$f"
    done | awk '{s += $1} END{print s+0}')
    printf '%-10s %6d\n' "$crate" "$n"
    total=$((total + n))
    eval "loc_$crate=$n"
done
printf '%-10s %6d\n' "core+serve" "$((loc_core + loc_serve))"
printf '%-10s %6d\n' "total" "$total"
