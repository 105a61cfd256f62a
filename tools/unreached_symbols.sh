#!/usr/bin/env bash
# Lists the named treediff:: functions that the production libraries
# define but no shipped binary reaches.
#
# "Shipped binary" means every executable the tree builds with tests off
# (treediff_serve, treediff_client, make_golden_log, the bench/ programs
# and the examples/) plus perfbench_driver, built through
# perfbench/CMakeLists.txt the way the benchmark builds it. Both trees are
# compiled at -O0 with one section per function and linked with
# --gc-sections, so an executable keeps exactly the functions reachable
# from its entry points. A function defined (nm type T, t or W) in a src/
# archive that appears in no executable is printed, one demangled
# signature a line, sorted. Lambdas and anonymous-namespace helpers are
# left out: they are reached through their named enclosing function.
# The test-support libraries (treediff_faultenv, treediff_testsupport) are
# test code by design and are not audited.
#
# Usage: tools/unreached_symbols.sh [--check] [WORK_DIR]
#   WORK_DIR  build directory for the two trees (default: build-unreached)
#   --check   exit 1 when a printed symbol is missing from
#             tools/unreached_allowlist.txt, whose lines read
#             "<signature> # <why it is kept>"

set -euo pipefail

check=0
if [[ "${1:-}" == "--check" ]]; then
  check=1
  shift
fi
root="$(cd "$(dirname "$0")/.." && pwd)"
work="${1:-$root/build-unreached}"
jobs="$(nproc)"

flags=(
  -DCMAKE_BUILD_TYPE=Debug
  "-DCMAKE_CXX_FLAGS_DEBUG=-O0 -g0"
  "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections"
  "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections"
)

cmake -S "$root" -B "$work/main" -DTREEDIFF_BUILD_TESTS=OFF "${flags[@]}" \
  >/dev/null
cmake --build "$work/main" -j "$jobs" >/dev/null
cmake -S "$root/perfbench" -B "$work/perfbench" "${flags[@]}" >/dev/null
cmake --build "$work/perfbench" --target perfbench_driver -j "$jobs" \
  >/dev/null

# Named treediff:: functions defined in the given object files. A
# template instantiation prints its return type first, so the name is the
# last word before the parameter list at template depth 0: std:: templates
# instantiated over treediff types are not treediff functions.
defined() {
  nm -C --defined-only "$@" 2>/dev/null \
    | awk '
      function name(s,   i, c, depth, start) {
        depth = 0; start = 1
        for (i = 1; i <= length(s); i++) {
          c = substr(s, i, 1)
          if (c == "<") depth++
          else if (c == ">") depth--
          else if (depth == 0 && c == " ") start = i + 1
          else if (depth == 0 && c == "(") return substr(s, start, i - start)
        }
        return s
      }
      $2 == "T" || $2 == "t" || $2 == "W" {
        sym = $0
        sub(/^[^ ]+ [^ ]+ /, "", sym)
        if (name(sym) ~ /^treediff::/) print sym
      }' \
    | grep -v -e '{lambda' -e '(anonymous namespace)' \
    | sort -u
}

mapfile -t archives < <(find "$work/main/src" -name 'libtreediff_*.a' \
  ! -name 'libtreediff_faultenv.a' ! -name 'libtreediff_testsupport.a' \
  | sort)
mapfile -t binaries < <(find "$work/main" "$work/perfbench" -type f \
  -perm -u+x ! -path '*/CMakeFiles/*' | sort)

defined "${archives[@]}" >"$work/defined.txt"
for bin in "${binaries[@]}"; do
  defined "$bin"
done | sort -u >"$work/reached.txt"
comm -23 "$work/defined.txt" "$work/reached.txt" | tee "$work/unreached.txt"

if [[ "$check" == 1 ]]; then
  sed -e '/^#/d' -e '/^[[:space:]]*$/d' -e 's/ # .*$//' \
    "$root/tools/unreached_allowlist.txt" | sort -u >"$work/allowed.txt"
  missing="$(comm -23 "$work/unreached.txt" "$work/allowed.txt")"
  if [[ -n "$missing" ]]; then
    echo >&2
    echo "unreached and not in tools/unreached_allowlist.txt:" >&2
    echo "$missing" >&2
    exit 1
  fi
fi
