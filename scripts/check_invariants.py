#!/usr/bin/env python3
"""Repo-invariant checker for the project lint gate (scripts/lint.sh).

Pure-stdlib static checks over the source tree; no compiler needed, so the
gate runs even where clang tooling is unavailable. Enforced invariants:

  1. any-cast containment: `std::any_cast` may appear only under src/taskrt/.
     Everything else goes through the checked taskrt::any_ref/any_as helpers
     (or the TaskContext/Runtime accessors built on them), which turn silent
     bad_any_cast into errors naming the expected and held types.

  2. Layering: each src/<layer>/ may include only from its declared lower
     layers (see LAYER_DEPS). Catches, e.g., esm/ reaching into hpcwaas/.
     Every layer must be declared: a source file under a src/<dir>/ missing
     from LAYER_DEPS, or a src/ include whose top-level directory is not a
     declared layer, is a violation, so a new or deleted layer cannot
     (re)appear without a reviewed edit here.

  3. Log tag hygiene: LOG_* macro calls use a string-literal component tag or
     a named kFooTag constant (log routing keys on it; an arbitrary computed
     tag breaks aggregation).

  4. One owner for the Listing-1 chain: under src/, the array primitives
     `oph_predicate(` and `wave_duration(` may appear only in src/datacube/
     (which implements them) and src/extremes/ (whose wave_duration_cube and
     wave_index_cube build the heat/cold-wave chain). Everything else, the
     workflow included, calls those two functions instead of re-spelling
     the operator strings.

  5. No value-changing float optimisation: no CMakeLists.txt may pass
     -ffast-math, -Ofast, -funsafe-math-optimizations, -march=, -mavx* or
     -mfma. The lane kernels promise outputs bit-identical to a plain
     per-element loop (the same IEEE operation per element, in the same
     order): the datacube's (src/datacube/expression.cpp), the ESM step's
     (src/esm/model.cpp, whose separate _mm_mul_pd and _mm_add_pd must not
     fuse) and the CNN layers' (src/ml/layers.cpp, whose separate
     _mm_mul_ps and _mm_add_ps must not fuse), and the ESM, CNN and index
     golden digests pin them; the first three let the compiler reassociate
     sums, drop NaN/signed-zero cases and contract multiply-adds. The others enable FMA (directly, or
     through a target that has it), and GCC's default -ffp-contract=fast
     then fuses a * b + c into one rounding. The build targets the x86-64
     baseline, whose SSE2 the lane kernels use.

  6. One open per daily file per consumer: `ncio::FileReader` may not appear
     under src/core/. The workflow reads daily files only through
     esm::DailyFileReader (or the read_daily_* wrappers over it), which
     parses a file's header once for every variable a task reads, so a task
     cannot quietly go back to one open per variable.

  7. One task lifecycle record: under src/taskrt/ and src/obs/prof/, a field
     or variable named `submit_ns`, `ready_ns` or `queued_ns` may be declared
     only in src/taskrt/trace.hpp (taskrt::TaskTrace). The runtime's task
     record and the profiler's TaskCost derive from TaskTrace and copy it as
     one slice, so a second copy of the lifecycle cannot creep back.

  8. No polling in the task runtime or the workflow: nothing under
     src/taskrt/ or src/core/ may call `wait_for(` or `wait_until(`.
     Workers, sync and wait_all wait untimed on condition variables that
     every state change notifies, a crashed node is declared dead by the
     event that completes it (crash_node, the injected crash, its last body
     returning), and the workflow learns that a simulated year is done from
     the task graph (year_ready reads the file list its esm_simulation task
     wrote). A timed wait could only hide a missed notify or bring back a
     timeout-driven watchdog or a directory poller beside the graph.

  9. One owner for the CNN tiling: under src/, `regrid_bilinear(` may
     appear only in src/common/grid.* (which implements it) and src/ml/, and
     `make_patches(` only in src/ml/. ml::TcTiling owns the grid the CNN
     tiles, regridding onto it, tiling a step, and the lat/lon <-> row/col
     mapping of truth labels and detections; the workflow, pretraining
     included, goes through it, so training and inference cannot drift onto
     different grids unnoticed.

Exit code 0 when clean, 1 with one "file:line: message" per violation.
"""

from __future__ import annotations

import pathlib
import re
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

# Allowed direct #include targets per layer (the measured architecture of the
# tree; core is the composition root). Adding an edge here is an explicit,
# reviewed decision.
LAYER_DEPS = {
    "common": set(),
    "ncio": {"common"},
    "obs": {"common"},
    # The attribution profiler is a nested layer (library climate_prof) that
    # sits above both obs and taskrt; plain obs/ must not include taskrt/.
    "obs/prof": {"common", "obs", "taskrt"},
    "taskrt": {"common", "obs"},
    "datacube": {"common", "ncio", "obs"},
    "esm": {"common", "ncio", "obs"},
    "ml": {"common", "obs"},
    "extremes": {"common", "datacube", "esm"},
    # hpcwaas builds per-deployment run reports via the profiler (pseudo
    # task traces over the topology's depends_on edges).
    "hpcwaas": {"common", "obs", "obs/prof", "taskrt"},
    "core": {"common", "datacube", "esm", "extremes", "ml", "obs", "obs/prof", "taskrt"},
}

SOURCE_GLOBS = ("src/**/*.hpp", "src/**/*.cpp", "tests/**/*.cpp", "bench/**/*.cpp",
                "examples/**/*.cpp")

INCLUDE_RE = re.compile(r'^\s*#include\s+"([a-z0-9_]+(?:/[a-z0-9_]+)*)\.[a-z]+"')
ANY_CAST_RE = re.compile(r"\bstd::any_cast\b")
LOG_TAG_RE = re.compile(r"\bLOG_(?:TRACE|DEBUG|INFO|WARN|ERROR)\s*\(\s*([^)\s][^),]*)\)")
TAG_CONSTANT_RE = re.compile(r"^k\w*Tag$")
# The macro definitions themselves forward a `component` parameter.
LOG_TAG_EXEMPT = {pathlib.Path("src/common/log.hpp")}
LISTING1_PRIMITIVE_RE = re.compile(r"\b(?:oph_predicate|wave_duration)\s*\(")
LISTING1_OWNERS = {"datacube", "extremes"}
CMAKE_GLOBS = ("CMakeLists.txt", "src/**/CMakeLists.txt", "tests/**/CMakeLists.txt",
               "bench/**/CMakeLists.txt", "examples/**/CMakeLists.txt",
               "perfbench/**/CMakeLists.txt")
NCIO_READER_RE = re.compile(r"\bncio::FileReader\b")
LIFECYCLE_DECL_RE = re.compile(
    r"\b(?!return\b|else\b|case\b)[\w:>]+\s*[&*]?\s+(submit_ns|ready_ns|queued_ns)\s*[=;{]")
LIFECYCLE_LAYERS = {"taskrt", "obs/prof"}
LIFECYCLE_HOME = pathlib.Path("src/taskrt/trace.hpp")
UNSAFE_MATH_RE = re.compile(
    r"-ffast-math\b|-Ofast\b|-funsafe-math-optimizations\b|-march=[\w.+-]*|-mavx\w*|-mfma\b")
TIMED_WAIT_RE = re.compile(r"\bwait_(?:for|until)\s*\(")
REGRID_RE = re.compile(r"\bregrid_bilinear\s*\(")
MAKE_PATCHES_RE = re.compile(r"\bmake_patches\s*\(")
REGRID_HOMES = {pathlib.Path("src/common/grid.hpp"), pathlib.Path("src/common/grid.cpp")}
NO_POLLING_LAYERS = {"taskrt", "core"}


def iter_sources():
    for pattern in SOURCE_GLOBS:
        yield from sorted(REPO_ROOT.glob(pattern))


def layer_of(path: pathlib.Path):
    rel = path.relative_to(REPO_ROOT)
    if rel.parts[0] == "src" and len(rel.parts) > 2:
        nested = "/".join(rel.parts[1:3])
        if len(rel.parts) > 3 and nested in LAYER_DEPS:
            return nested
        return rel.parts[1]
    return None


def include_layer(target: str):
    """Layer of an include path, honouring nested layers ("obs/prof/x.hpp"
    belongs to obs/prof, not obs)."""
    parts = target.split("/")
    if len(parts) >= 3 and "/".join(parts[:2]) in LAYER_DEPS:
        return "/".join(parts[:2])
    return parts[0]


def check_file(path: pathlib.Path, violations: list):
    rel = path.relative_to(REPO_ROOT)
    layer = layer_of(path)
    in_taskrt = layer == "taskrt"
    builds_listing1 = rel.parts[0] == "src" and layer not in LISTING1_OWNERS
    in_core = layer == "core"
    no_polling = rel.parts[0] == "src" and layer in NO_POLLING_LAYERS
    owns_lifecycle = layer not in LIFECYCLE_LAYERS or rel == LIFECYCLE_HOME
    in_src = rel.parts[0] == "src"
    may_regrid = not in_src or layer == "ml" or rel in REGRID_HOMES
    may_tile = not in_src or layer == "ml"
    allowed = LAYER_DEPS.get(layer) if layer is not None else None
    if layer is not None and allowed is None:
        violations.append(
            f"{rel}:1: src/{layer}/ is not a declared layer (add it to LAYER_DEPS with the "
            f"layers it may include)")

    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith("//"):
            continue

        if not in_taskrt and ANY_CAST_RE.search(line):
            violations.append(
                f"{rel}:{lineno}: naked std::any_cast outside src/taskrt/ "
                f"(use taskrt::any_ref/any_as or a typed accessor)")

        if allowed is not None:
            match = INCLUDE_RE.match(line)
            if match:
                target = include_layer(match.group(1))
                if target not in LAYER_DEPS:
                    violations.append(
                        f"{rel}:{lineno}: {layer}/ includes {target}/, which is not a declared "
                        f"layer")
                elif target != layer and target not in allowed:
                    violations.append(
                        f"{rel}:{lineno}: layer violation: {layer}/ must not include "
                        f"{target}/ (allowed: {', '.join(sorted(allowed)) or 'nothing'})")

        if builds_listing1 and LISTING1_PRIMITIVE_RE.search(line):
            violations.append(
                f"{rel}:{lineno}: Listing-1 primitive outside src/datacube/ and "
                f"src/extremes/ (call extremes::wave_duration_cube/wave_index_cube)")

        if in_core and NCIO_READER_RE.search(line):
            violations.append(
                f"{rel}:{lineno}: ncio::FileReader under src/core/ (read daily files through "
                f"esm::DailyFileReader, one open per file)")

        if no_polling and TIMED_WAIT_RE.search(line):
            violations.append(
                f"{rel}:{lineno}: timed wait under src/{layer}/ (wait untimed on a "
                f"condition variable that the state change notifies, or on a task's output)")

        if not may_regrid and REGRID_RE.search(line):
            violations.append(
                f"{rel}:{lineno}: regrid_bilinear outside src/common/grid.* and src/ml/ "
                f"(regrid onto the CNN grid through ml::TcTiling)")

        if not may_tile and MAKE_PATCHES_RE.search(line):
            violations.append(
                f"{rel}:{lineno}: make_patches outside src/ml/ (tile through ml::TcTiling)")

        if not owns_lifecycle:
            match = LIFECYCLE_DECL_RE.search(line)
            if match:
                violations.append(
                    f"{rel}:{lineno}: '{match.group(1)}' declared outside src/taskrt/trace.hpp "
                    f"(derive from taskrt::TaskTrace instead of re-declaring the lifecycle)")

        if rel not in LOG_TAG_EXEMPT:
            for tag in LOG_TAG_RE.findall(line):
                tag = tag.strip()
                if not tag.startswith('"') and not TAG_CONSTANT_RE.match(tag):
                    violations.append(
                        f"{rel}:{lineno}: LOG_* component tag must be a string literal or a "
                        f"kFooTag constant, got '{tag}'")


def check_cmake(path: pathlib.Path, violations: list):
    rel = path.relative_to(REPO_ROOT)
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        code = line.split("#", 1)[0]
        match = UNSAFE_MATH_RE.search(code)
        if match:
            violations.append(
                f"{rel}:{lineno}: {match.group(0)} changes float results (the lane "
                f"kernels and golden digests rely on IEEE semantics without FMA)")


def main() -> int:
    violations: list = []
    checked = 0
    for path in iter_sources():
        check_file(path, violations)
        checked += 1
    for pattern in CMAKE_GLOBS:
        for path in sorted(REPO_ROOT.glob(pattern)):
            check_cmake(path, violations)
            checked += 1
    if violations:
        for violation in violations:
            print(violation)
        print(f"check_invariants: {len(violations)} violation(s) in {checked} files",
              file=sys.stderr)
        return 1
    print(f"check_invariants: OK ({checked} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
