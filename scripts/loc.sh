#!/usr/bin/env bash
# Non-test line count of the library and binary sources under `crates/`,
# per crate and in total.
#
# For every `crates/*/src/**/*.rs` file, counts the lines before the
# file's first `#[cfg(test)]` line that are neither blank nor `//`
# comments (`///` and `//!` doc lines included). `tests/`, `benches/` and
# `examples/` directories are not counted.
#
#   scripts/loc.sh            # run from anywhere inside the repository
set -euo pipefail

cd "$(dirname "$0")/.."

total=0
for crate in crates/*/; do
  crate=${crate%/}
  [ -d "$crate/src" ] || continue
  n=0
  while IFS= read -r f; do
    c=$(awk '/^#\[cfg\(test\)\]/{exit} {s=$0; sub(/^[ \t]+/,"",s); if (s!="" && s!~/^\/\//) n++} END{print n+0}' "$f")
    n=$((n + c))
  done < <(find "$crate/src" -name '*.rs' | sort)
  printf '%-20s %6d\n' "${crate#crates/}" "$n"
  total=$((total + n))
done
printf '%-20s %6d\n' total "$total"
