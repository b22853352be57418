#!/usr/bin/env bash
# Unlinked-symbol report: which out-of-line climate:: functions in the src/
# libraries does no program link?
#
# Builds every bench/ and examples/ program, and perfbench in its own tree,
# with each function in its own section (-ffunction-sections -fdata-sections)
# and the linker dropping every section nothing references (--gc-sections).
# The build is unoptimised (-O0), so a function that is called keeps its
# call and is linked even where an optimised build would inline it away.
# A function defined in a src/ library (nm type T) that survives in none of
# those binaries is linked by no program: only tests, or nothing, call it.
# Unlike a grep, this is not fooled by a word in a comment or a string, and
# it follows macro and virtual callers.
#
# Some entries are kept on purpose (test hooks, reference implementations
# that tests compare against, file-format API); scripts/unlinked_symbols.expected
# records them, and CI fails when the output differs from it. A new entry is
# deleted, or added to that file on purpose; a stale entry is removed from it.
#
# Usage:
#   scripts/unlinked_symbols.sh            # prints the sorted list on stdout
#   scripts/unlinked_symbols.sh | diff scripts/unlinked_symbols.expected -
#
# Build trees: build-unlinked/ (benches, examples) and
# build-unlinked/perfbench/ (perfbench against ../src).
set -euo pipefail
export LC_ALL=C  # byte-order sort, so the list diffs the same on every host

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${REPO_ROOT}/build-unlinked"
JOBS="${JOBS:-4}"

GC_FLAGS=(
  -DCMAKE_BUILD_TYPE=Debug
  "-DCMAKE_CXX_FLAGS_DEBUG=-O0 -DNDEBUG"
  "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections"
  "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections"
)

# Program target names, as declared in bench/ and examples/.
mapfile -t PROGRAMS < <(sed -n -E \
  's/^[[:space:]]*climate_add_(bench|example)\(([A-Za-z0-9_]+)[[:space:]].*/\2/p' \
  "${REPO_ROOT}/bench/CMakeLists.txt" "${REPO_ROOT}/examples/CMakeLists.txt")

echo "== configure and build ${#PROGRAMS[@]} bench/example programs (${BUILD_DIR})" >&2
cmake -S "${REPO_ROOT}" -B "${BUILD_DIR}" "${GC_FLAGS[@]}" >&2
cmake --build "${BUILD_DIR}" -j "${JOBS}" --target "${PROGRAMS[@]}" >&2

echo "== configure and build perfbench (${BUILD_DIR}/perfbench)" >&2
cmake -S "${REPO_ROOT}/perfbench" -B "${BUILD_DIR}/perfbench" "${GC_FLAGS[@]}" >&2
cmake --build "${BUILD_DIR}/perfbench" -j "${JOBS}" --target perfbench >&2

BINARIES=()
for name in "${PROGRAMS[@]}"; do
  path="$(find "${BUILD_DIR}/bench" "${BUILD_DIR}/examples" -maxdepth 1 -type f \
    -name "${name}" -perm -u+x | head -n 1)"
  [[ -n "${path}" ]] || { echo "unlinked_symbols: no binary for ${name}" >&2; exit 1; }
  BINARIES+=("${path}")
done
BINARIES+=("${BUILD_DIR}/perfbench/perfbench")

# Demangled names of the climate:: functions a set of objects defines
# (global text symbols: the out-of-line functions of the .cpp files).
defined_functions() {
  nm -C --defined-only "$@" 2>/dev/null \
    | awk '$2 == "T" { $1 = ""; $2 = ""; sub(/^  /, ""); print }' \
    | grep -E '^climate::' | sort -u
}

mapfile -t LIBS < <(find "${BUILD_DIR}/src" -name 'libclimate_*.a' | sort)
defined="$(mktemp)"
linked="$(mktemp)"
trap 'rm -f "${defined}" "${linked}"' EXIT
defined_functions "${LIBS[@]}" > "${defined}"
defined_functions "${BINARIES[@]}" > "${linked}"

echo "== climate:: functions defined in ${#LIBS[@]} src/ libraries and linked into none of ${#BINARIES[@]} programs" >&2
comm -23 "${defined}" "${linked}"
