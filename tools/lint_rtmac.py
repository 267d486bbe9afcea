#!/usr/bin/env python3
"""Repo-specific determinism / correctness lint for rtmac.

Enforces the coding rules the repo's guarantees depend on but clang-tidy
cannot express:

  wall-clock          No wall/monotonic clock reads outside src/util/ and the
                      quarantined profiler (expfw/runner.cpp, expfw/observe.cpp).
                      Sweep output must be a pure function of (config, seed);
                      a stray clock read is how nondeterminism sneaks in.
  nondet-rng          No std::rand/srand, std::random_device, or
                      default_random_engine anywhere. All randomness flows
                      from util/rng.hpp streams derived from the root seed.
  unordered-iteration No iteration over unordered containers: their order is
                      implementation-defined, so any loop over one can leak
                      scheduling/hash noise into results. Keyed lookups are
                      fine; iterate a sorted or indexed container instead.
  float-equality      No ==/!= on floating-point values in src/stats/ (the
                      layer that aggregates results): exact comparison on
                      accumulated doubles is almost always a latent bug.
  raw-assert          No assert()/<cassert> in src/: use RTMAC_ASSERT /
                      RTMAC_REQUIRE / RTMAC_UNREACHABLE (util/check.hpp) so
                      invariants stay checkable in Release via RTMAC_CHECKED.
  std-function        No std::function in src/sim/, src/phy/, src/mac/ (the
                      event hot path): it heap-allocates beyond its tiny SSO
                      buffer and silently accepts copy-only callables. Use
                      util::InplaceFunction, which stores callables inline
                      and rejects oversized captures at compile time.
  interval-interface-alloc
                      No allocating containers (std::vector, std::string,
                      std::map, ...) in begin_interval/end_interval
                      signatures under src/mac/ and src/net/. The interval
                      hot path runs once per simulated interval for every
                      scheme; its interfaces take std::span views in and
                      fill caller-owned spans out, so the steady state stays
                      allocation-free (BM_DbdpIntervalAllocs == 0 is
                      CI-gated).
  shard-isolation     No shard-mode Medium plumbing (configure_shard,
                      drain_cut_outbox, set_resolution_horizon) outside the
                      Medium itself, the shard coordinator, and the Network
                      glue in src/net/network.cpp. Cross-shard state flows
                      through the coordinator's deterministic mailboxes only;
                      a stray call from scheme/bench code would bypass the
                      window barriers and break run-to-run determinism.
  layering            The include graph over src/ must respect the layer DAG
                      declared in LAYERS (util at the bottom, expfw at the
                      top): a file may include only its own directory or a
                      strictly lower layer, and headers must be acyclic.
                      Intentional back-edges are declared in LAYER_EXCEPTIONS
                      with a rationale string; everything else is a
                      violation. See DESIGN.md §5c for the diagram.
  header-self-contained
                      Every header under src/ must compile on its own
                      (g++ -fsyntax-only), so include order never matters.

Suppress a finding by appending a justification on the same line:

    if (sum_sq == 0.0) return 1.0;  // lint-ok: float-equality exact zero guard

The rule name is required; a human-readable reason after it is expected.

Exit status: 0 clean, 1 violations, 2 usage/environment error.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path, PurePosixPath

SOURCE_GLOBS = ("*.cpp", "*.hpp")

# Directories scanned for each textual rule, relative to the repo root.
RULE_SCOPES = {
    "wall-clock": ("src",),
    "nondet-rng": ("src", "bench", "tests", "examples"),
    "unordered-iteration": ("src",),
    "float-equality": ("src/stats",),
    "raw-assert": ("src",),
    "std-function": ("src/sim", "src/phy", "src/mac"),
    "interval-interface-alloc": ("src/mac", "src/net"),
    "shard-isolation": ("src", "bench", "tests", "examples"),
}

# Files (or directories, trailing "/") exempt from a rule, each carrying the
# rationale that justifies the exemption — same shape as LAYER_EXCEPTIONS
# below, so every hole in every rule is declared and explained in one idiom.
# Keep these lists tiny.
ALLOWLISTS = {
    "wall-clock": (
        ("src/util/",
         "util/ owns the time abstraction; anything wall-clock-shaped that "
         "ever lands there is at least behind the library's own API"),
        ("src/expfw/runner.cpp",
         "the engine profiler measures wall time by design; its output is "
         "quarantined to profile.jsonl / profile gauges, never sim-domain "
         "data"),
        ("src/expfw/observe.cpp",
         "same quarantined wall-clock profiler surface as expfw/runner.cpp"),
    ),
    "shard-isolation": (
        ("src/phy/medium.hpp",
         "the Medium owns the shard-mode API it is forbidding elsewhere"),
        ("src/phy/medium.cpp",
         "the Medium owns the shard-mode API it is forbidding elsewhere"),
        ("src/sim/sharded_simulator.hpp",
         "the shard coordinator is a sanctioned caller (barrier phase only)"),
        ("src/sim/sharded_simulator.cpp",
         "the shard coordinator is a sanctioned caller (barrier phase only)"),
        ("src/net/network.cpp",
         "the Network's per-cell glue is the sanctioned bridge between the "
         "coordinator and each cell's Medium"),
    ),
}

# ---- layering -----------------------------------------------------------
# The layer DAG over src/ (higher numbers may include strictly lower ones,
# plus their own directory). Derived from the architecture DESIGN.md §2
# describes and diagrammed in §5c; sim and traffic share a layer because
# neither depends on the other.
LAYERS = {
    "util": 0,
    "core": 1,
    "sim": 2,
    "traffic": 2,
    "stats": 3,
    "obs": 4,
    "phy": 5,
    "mac": 6,
    "net": 7,
    "analysis": 8,
    "expfw": 9,
}

# Declared back-edges: (includer path, target directory) -> rationale.
# Every entry must explain why the edge cannot point downward; an edge not
# listed here (and not suppressed inline) is a violation.
LAYER_EXCEPTIONS = {
    ("src/obs/collect.cpp", "mac"):
        "one-way .cpp-only bridge: collect_network_metrics() snapshots "
        "MAC-scheme gauges into the registry; the header forward-declares "
        "and no mac/ code ever includes obs/collect",
    ("src/obs/collect.cpp", "net"):
        "one-way .cpp-only bridge: collect_network_metrics() reads "
        "net::Network counters; the header forward-declares net::Network "
        "so the dependency never escapes this translation unit",
}

SUPPRESS_RE = re.compile(r"//\s*lint-ok:\s*([\w-]+)")

WALL_CLOCK_RE = re.compile(
    r"steady_clock|system_clock|high_resolution_clock|file_clock"
    r"|\bgettimeofday\b|\bclock_gettime\b|\blocaltime\b|\bgmtime\b"
    r"|\bstrftime\b|\bstd::time\s*\(|\btime\s*\(\s*(?:nullptr|NULL|0)\s*\)"
    r"|\bstd::clock\s*\("
)

NONDET_RNG_RE = re.compile(
    r"\brandom_device\b|\bdefault_random_engine\b|\bstd::rand\b"
    r"|(?<![\w:])s?rand\s*\("
)

RAW_ASSERT_RE = re.compile(r"(?<![\w.])assert\s*\(|<cassert>")

STD_FUNCTION_RE = re.compile(r"\bstd\s*::\s*function\b|<functional>")

FLOAT_LITERAL = r"(?:\d+\.\d*|\.\d+|\d+\.?\d*[eE][-+]?\d+)[fF]?"
FLOAT_EQ_LITERAL_RE = re.compile(
    rf"(?:{FLOAT_LITERAL}\s*[=!]=)|(?:[=!]=\s*{FLOAT_LITERAL})"
)

INTERVAL_IFACE_RE = re.compile(r"\b(?:begin|end)_interval\s*\(")

SHARD_ISOLATION_RE = re.compile(
    r"\b(?:configure_shard|drain_cut_outbox|set_resolution_horizon)\s*\(")

ALLOC_CONTAINER_RE = re.compile(
    r"\bstd\s*::\s*(?:vector|deque|list|forward_list|map|set|multimap"
    r"|multiset|unordered_\w+|string|basic_string)\b")

UNORDERED_DECL_RE = re.compile(
    r"unordered_(?:map|set|multimap|multiset)\s*<[^;]*>\s+(\w+)"
)
RANGE_FOR_RE = re.compile(r"\bfor\s*\(([^;]*?):([^)]*)\)")

COMMENT_RE = re.compile(r"//.*$")


class Violation:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def _suppressed(line, rule):
    m = SUPPRESS_RE.search(line)
    return m is not None and m.group(1) == rule


def _code_part(line):
    """The line with any trailing // comment stripped (string-naive but the
    tree keeps clock/rng identifiers out of string literals)."""
    return COMMENT_RE.sub("", line)


def _scan_regex(path, text, rule, regex, message):
    out = []
    for i, line in enumerate(text.splitlines(), 1):
        if regex.search(_code_part(line)) and not _suppressed(line, rule):
            out.append(Violation(path, i, rule, message))
    return out


def check_wall_clock(path, text):
    return _scan_regex(
        path, text, "wall-clock", WALL_CLOCK_RE,
        "wall-clock read outside util/ and the quarantined profiler "
        "(sim results must be a pure function of the seed)")


def check_nondet_rng(path, text):
    return _scan_regex(
        path, text, "nondet-rng", NONDET_RNG_RE,
        "nondeterministically seeded / non-reproducible RNG "
        "(use util/rng.hpp streams derived from the root seed)")


def check_raw_assert(path, text):
    return _scan_regex(
        path, text, "raw-assert", RAW_ASSERT_RE,
        "raw assert/<cassert> (use RTMAC_ASSERT/RTMAC_REQUIRE/"
        "RTMAC_UNREACHABLE from util/check.hpp)")


def check_std_function(path, text):
    return _scan_regex(
        path, text, "std-function", STD_FUNCTION_RE,
        "std::function/<functional> in the event hot path "
        "(heap-allocates past its SSO buffer; use util::InplaceFunction)")


def check_float_equality(path, text):
    out = []
    double_names = set()
    for line in text.splitlines():
        for m in re.finditer(r"\b(?:double|float)\s+(\w+)\s*[={;,)]",
                             _code_part(line)):
            double_names.add(m.group(1))
    name_eq = (
        re.compile(
            r"\b(" + "|".join(re.escape(n) for n in sorted(double_names)) +
            r")\s*[=!]=(?!=)|[=!]=\s*\b(" +
            "|".join(re.escape(n) for n in sorted(double_names)) + r")\b")
        if double_names else None)
    for i, line in enumerate(text.splitlines(), 1):
        code = _code_part(line)
        hit = FLOAT_EQ_LITERAL_RE.search(code)
        if not hit and name_eq is not None:
            hit = name_eq.search(code)
        if hit and not _suppressed(line, "float-equality"):
            out.append(Violation(
                path, i, "float-equality",
                "exact ==/!= on floating-point in stats/ "
                "(compare against a tolerance, or suppress for exact-zero "
                "guards with lint-ok)"))
    return out


def check_interval_interface(path, text):
    """Flags begin_interval/end_interval signatures (declarations, defs, or
    return types) that mention an allocating container. The signature may
    span lines; the whole parenthesized stretch is inspected."""
    out = []
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        first = _code_part(lines[i])
        if INTERVAL_IFACE_RE.search(first) is None:
            i += 1
            continue
        # Accumulate until the parameter list's parentheses balance out.
        depth = 0
        opened = False
        j = i
        parts = []
        while j < len(lines):
            chunk = _code_part(lines[j])
            parts.append(chunk)
            for ch in chunk:
                if ch == "(":
                    depth += 1
                    opened = True
                elif ch == ")":
                    depth -= 1
            if opened and depth <= 0:
                break
            j += 1
        j = min(j, len(lines) - 1)
        signature = " ".join(parts)
        suppressed = any(_suppressed(lines[k], "interval-interface-alloc")
                         for k in range(i, j + 1))
        if ALLOC_CONTAINER_RE.search(signature) and not suppressed:
            out.append(Violation(
                path, i + 1, "interval-interface-alloc",
                "allocating container in an interval hot-path interface "
                "(take std::span views in and fill caller-owned spans out; "
                "the per-interval steady state must not allocate)"))
        i = j + 1
    return out


def check_shard_isolation(path, text):
    return _scan_regex(
        path, text, "shard-isolation", SHARD_ISOLATION_RE,
        "shard-mode Medium API outside the Medium/coordinator/Network glue "
        "(cross-shard state must flow through the coordinator's "
        "deterministic mailboxes)")


def check_unordered_iteration(path, text):
    out = []
    names = set()
    for line in text.splitlines():
        for m in UNORDERED_DECL_RE.finditer(_code_part(line)):
            names.add(m.group(1))
    for i, line in enumerate(text.splitlines(), 1):
        code = _code_part(line)
        for m in RANGE_FOR_RE.finditer(code):
            seq = m.group(2).strip()
            seq_id = re.sub(r"^[\w.\->]*?(\w+)\s*(?:\(\s*\))?$", r"\1", seq)
            if "unordered" in seq or seq_id in names or seq in names:
                if not _suppressed(line, "unordered-iteration"):
                    out.append(Violation(
                        path, i, "unordered-iteration",
                        f"iteration over unordered container '{seq}' "
                        "(implementation-defined order can leak into "
                        "results; iterate a sorted/indexed view)"))
    return out


INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')


def _logical_lines(text):
    """Yields (first_line_number, line) with backslash continuations folded,
    so a preprocessor directive split across physical lines is seen whole."""
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        start = i
        buf = lines[i]
        while buf.rstrip().endswith("\\") and i + 1 < len(lines):
            buf = buf.rstrip()[:-1] + lines[i + 1]
            i += 1
        yield start + 1, buf
        i += 1


def _quoted_includes(path, text):
    """All quoted includes of a file as (line_number, line, target) where
    target is the include path string (src-relative by repo convention)."""
    out = []
    for lineno, line in _logical_lines(text):
        m = INCLUDE_RE.match(_code_part(line))
        if m is not None:
            out.append((lineno, line, m.group(1)))
    return out


def check_layering(root):
    """Include-graph rule over src/: no back-edges in the LAYERS DAG (other
    than the declared LAYER_EXCEPTIONS) and no cycles among headers."""
    src = root / "src"
    if not src.is_dir():
        return []
    out = []
    header_includes = {}  # src-relative posix path -> [(line, target)]
    for glob in SOURCE_GLOBS:
        for path in sorted(src.rglob(glob)):
            rel = path.relative_to(root)
            rel_src = path.relative_to(src)
            if len(rel_src.parts) < 2:
                continue  # a file directly in src/ belongs to no layer
            here = rel_src.parts[0]
            here_layer = LAYERS.get(here)
            includes = _quoted_includes(rel, path.read_text())
            if here_layer is None:
                out.append(Violation(
                    rel, 1, "layering",
                    f"directory src/{here}/ has no declared layer "
                    "(add it to LAYERS in tools/lint_rtmac.py)"))
                continue
            if path.suffix == ".hpp":
                header_includes[rel_src.as_posix()] = includes
            for lineno, line, target in includes:
                tparts = PurePosixPath(target).parts
                if len(tparts) < 2:
                    continue  # same-directory shorthand, no cross-layer edge
                tdir = tparts[0]
                tlayer = LAYERS.get(tdir)
                if tdir == here:
                    continue
                if _suppressed(line, "layering"):
                    continue
                if tlayer is None:
                    out.append(Violation(
                        rel, lineno, "layering",
                        f'include of "{target}" targets a directory with no '
                        f"declared layer (add src/{tdir}/ to LAYERS in "
                        "tools/lint_rtmac.py)"))
                elif tlayer >= here_layer and (
                        rel.as_posix(), tdir) not in LAYER_EXCEPTIONS:
                    out.append(Violation(
                        rel, lineno, "layering",
                        f'include of "{target}" is a layer back-edge: '
                        f"src/{here}/ (layer {here_layer}) may only depend "
                        f"on layers below it, and src/{tdir}/ is layer "
                        f"{tlayer} (declare a LAYER_EXCEPTION with a "
                        "rationale if this edge is intentional)"))
    out.extend(_header_cycles(root, header_includes))
    return out


def _header_cycles(root, header_includes):
    """DFS over the header include graph; reports each cycle once, anchored
    at its lexicographically smallest member. Cycles are forbidden outright —
    there is no exception mechanism, because a cycle cannot be layered."""
    out = []
    reported = set()
    # Resolve each header's includes to known headers (same-dir shorthand
    # resolves relative to the includer's directory).
    graph = {}
    for header, includes in header_includes.items():
        edges = []
        for lineno, _line, target in includes:
            if "/" not in target:
                target = (PurePosixPath(header).parent / target).as_posix()
            if target in header_includes:
                edges.append((lineno, target))
        graph[header] = edges

    WHITE, GREY, BLACK = 0, 1, 2
    color = dict.fromkeys(graph, WHITE)

    def visit(node, stack):
        color[node] = GREY
        stack.append(node)
        for lineno, target in graph[node]:
            if color[target] == GREY:
                cycle = stack[stack.index(target):] + [target]
                key = frozenset(cycle)
                if key not in reported:
                    reported.add(key)
                    anchor = min(cycle[:-1])
                    out.append(Violation(
                        Path("src") / node, lineno, "layering",
                        "header include cycle: " +
                        " -> ".join(cycle) +
                        f" (break the cycle at {anchor}, e.g. with a "
                        "forward declaration)"))
            elif color[target] == WHITE:
                visit(target, stack)
        stack.pop()
        color[node] = BLACK

    for node in sorted(graph):
        if color[node] == WHITE:
            visit(node, [])
    return out


TEXT_RULES = {
    "wall-clock": check_wall_clock,
    "nondet-rng": check_nondet_rng,
    "unordered-iteration": check_unordered_iteration,
    "float-equality": check_float_equality,
    "raw-assert": check_raw_assert,
    "std-function": check_std_function,
    "interval-interface-alloc": check_interval_interface,
    "shard-isolation": check_shard_isolation,
}


def scan_tree(root):
    violations = []
    for rule, scopes in RULE_SCOPES.items():
        checker = TEXT_RULES[rule]
        allow = ALLOWLISTS.get(rule, ())
        allow_files = {root / p for p, _rationale in allow if not p.endswith("/")}
        allow_dirs = tuple(root / p for p, _rationale in allow if p.endswith("/"))
        for scope in scopes:
            base = root / scope
            if not base.is_dir():
                continue
            for glob in SOURCE_GLOBS:
                for path in sorted(base.rglob(glob)):
                    if path in allow_files or any(
                            path.is_relative_to(d) for d in allow_dirs):
                        continue
                    violations.extend(
                        checker(path.relative_to(root), path.read_text()))
    violations.extend(check_layering(root))
    return violations


def find_compiler():
    for cand in (os.environ.get("CXX"), "c++", "g++", "clang++"):
        if cand and shutil.which(cand):
            return cand
    return None


def check_headers(root, jobs=0):
    """Compile every header under src/ on its own; returns violations."""
    compiler = find_compiler()
    if compiler is None:
        print("lint_rtmac: no C++ compiler found, skipping "
              "header-self-contained", file=sys.stderr)
        return []
    headers = sorted((root / "src").rglob("*.hpp"))
    jobs = jobs or os.cpu_count() or 1

    def compile_one(header):
        with tempfile.NamedTemporaryFile(
                "w", suffix=".cpp", delete=False) as tu:
            tu.write(f'#include "{header.relative_to(root / "src")}"\n')
            tu_path = tu.name
        try:
            proc = subprocess.run(
                [compiler, "-std=c++20", "-fsyntax-only",
                 "-I", str(root / "src"), tu_path],
                capture_output=True, text=True)
            if proc.returncode != 0:
                first_error = next(
                    (l for l in proc.stderr.splitlines() if "error" in l),
                    proc.stderr.strip().splitlines()[0]
                    if proc.stderr.strip() else "compile failed")
                return Violation(
                    header.relative_to(root), 1, "header-self-contained",
                    f"header does not compile standalone: {first_error}")
            return None
        finally:
            os.unlink(tu_path)

    with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
        results = list(pool.map(compile_one, headers))
    return [v for v in results if v is not None]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="repository root (default: the repo containing "
                             "this script)")
    parser.add_argument("--no-headers", action="store_true",
                        help="skip the header-self-contained compile check")
    parser.add_argument("--jobs", type=int, default=0,
                        help="parallel header compiles (default: cpu count)")
    args = parser.parse_args(argv)

    root = args.root.resolve()
    if not (root / "src").is_dir():
        print(f"lint_rtmac: {root} has no src/ directory", file=sys.stderr)
        return 2

    violations = scan_tree(root)
    if not args.no_headers:
        violations.extend(check_headers(root, args.jobs))

    # Stable order whatever filesystem enumeration produced, so CI diffs of
    # lint output are deterministic.
    violations.sort(key=lambda v: (str(v.path), v.line, v.rule))
    for v in violations:
        print(v)
    if violations:
        counts = {}
        for v in violations:
            counts[v.rule] = counts.get(v.rule, 0) + 1
        summary = ", ".join(f"{rule}={n}" for rule, n in sorted(counts.items()))
        print(f"lint_rtmac: {len(violations)} violation(s) [{summary}]",
              file=sys.stderr)
        return 1
    print("lint_rtmac: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
