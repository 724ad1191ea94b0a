#!/bin/sh
# Non-test lines of code, per file and per crate, for the crates
# ROADMAP item 6 asks every simplicity PR to shrink and to state: the
# engine and its shell (common, automata, obs, core, serve).
#
# A file's count is its lines above the first top-level `#[cfg(test)]`
# with blank and `//`-only lines (comments, rustdoc) dropped. Prints a
# number, gates nothing. Run from anywhere: scripts/loc.sh [crate-dir …]
set -eu
cd "$(dirname "$0")/.."
[ "$#" -gt 0 ] ||
    set -- crates/common crates/automata crates/obs crates/core crates/serve
for crate in "$@"; do
    total=0
    for f in $(find "$crate/src" -name '*.rs' | sort); do
        n=$(awk '/^#\[cfg\(test\)\]/{exit} !/^[[:space:]]*(\/\/|$)/' "$f" | wc -l)
        printf '%6d  %s\n' "$n" "$f"
        total=$((total + n))
    done
    printf '%6d  %s (total)\n' "$total" "$crate"
done
