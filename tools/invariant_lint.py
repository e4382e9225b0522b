#!/usr/bin/env python3
"""Repo-invariant lint: rejects patterns that break spider's determinism
contracts before they reach review.

Rules
-----
  clock-in-engine
      The storage, query, chase, provenance, route, executor, algebra,
      analysis and debugger layers (see CLOCK_FREE_DIRS) must be
      time-free: results and stats are byte-identical across runs, so no
      steady_clock/system_clock/high_resolution_clock reads are allowed
      there. Timing belongs to bench/ and src/obs.

  unordered-serialize
      Iterating an unordered container directly into serialized output
      (streams, string +=/append) ships hash-order bytes, which vary
      across libstdc++ versions and ASLR seeds. Sort first (or iterate a
      dense index) before rendering.

Escape hatch: a line (or its predecessor) carrying
    // invariant-lint: allow(<rule-name>)
is exempt — use it when the output provably does not depend on iteration
order (e.g. accumulating a sum).

Usage
-----
    invariant_lint.py [--root DIR]   # lint the tree (exit 1 on findings)
    invariant_lint.py --self-test    # prove both rules catch seeded
                                     # violations and honor allow()
"""

import argparse
import os
import re
import sys
import tempfile

CLOCK_RULE = "clock-in-engine"
UNORDERED_RULE = "unordered-serialize"

# Directories whose code must never read a clock. src/query is included so
# plans and match order can never depend on timing; the one sanctioned
# exception is the cost-model calibration harness, whose clock reads carry
# explicit allow(clock-in-engine) markers.
CLOCK_FREE_DIRS = ("src/chase", "src/routes", "src/exec", "src/algebra",
                   "src/query", "src/storage", "src/provenance",
                   "src/analysis", "src/debugger")
# Directories scanned for unordered-iteration-into-output.
SERIALIZE_DIRS = ("src",)

CLOCK_RE = re.compile(
    r"\b(steady_clock|system_clock|high_resolution_clock)\b")
ALLOW_RE = re.compile(r"//\s*invariant-lint:\s*allow\(([a-z\-,\s]+)\)")
UNORDERED_DECL_RE = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\s*<[^;]*?>\s*&?\s*"
    r"(\w+)\s*[;={(,)]")
RANGE_FOR_RE = re.compile(r"\bfor\s*\(.*?:\s*([^)]+)\)")
# Serialization sinks: stream insertion or string growth on a conventional
# output accumulator.
SINK_RE = re.compile(
    r"(\b(?:out|os|oss|buffer|text|result|json|stream)\w*\s*(?:\+=|<<))"
    r"|\.append\s*\(")


def allowed(lines, index, rule):
    """True when line `index` (0-based) or the one above carries an
    allow(...) naming `rule`."""
    for probe in (index, index - 1):
        if probe < 0:
            continue
        match = ALLOW_RE.search(lines[probe])
        if match and rule in [r.strip() for r in match.group(1).split(",")]:
            return True
    return False


def lint_clock(path, lines):
    findings = []
    for i, line in enumerate(lines):
        if CLOCK_RE.search(line) and not allowed(lines, i, CLOCK_RULE):
            findings.append((path, i + 1, CLOCK_RULE,
                             "clock read in a determinism-critical layer: "
                             + line.strip()))
    return findings


def lint_unordered(path, lines):
    """Flags range-fors over unordered containers whose body feeds a
    serialization sink within the loop's lexical extent."""
    unordered_names = set()
    for line in lines:
        for match in UNORDERED_DECL_RE.finditer(line):
            unordered_names.add(match.group(1))
    if not unordered_names:
        return []

    findings = []
    for i, line in enumerate(lines):
        match = RANGE_FOR_RE.search(line)
        if not match:
            continue
        range_expr = match.group(1)
        words = set(re.findall(r"\w+", range_expr))
        if not (words & unordered_names):
            continue
        # Walk the loop body: from the for-line until its brace closes
        # (or a 12-line heuristic window for brace-less bodies).
        depth = 0
        opened = False
        for j in range(i, min(i + 40, len(lines))):
            depth += lines[j].count("{") - lines[j].count("}")
            if "{" in lines[j]:
                opened = True
            body_line = lines[j]
            if SINK_RE.search(body_line):
                if not (allowed(lines, j, UNORDERED_RULE)
                        or allowed(lines, i, UNORDERED_RULE)):
                    findings.append(
                        (path, i + 1, UNORDERED_RULE,
                         "unordered iteration feeds serialized output at "
                         f"line {j + 1}: {body_line.strip()}"))
                break
            if opened and depth <= 0:
                break
            if not opened and j > i + 12:
                break
    return findings


def lint_tree(root):
    findings = []
    for rel_dirs, rule_fn, needs_clock_dir in (
            (CLOCK_FREE_DIRS, lint_clock, True),
            (SERIALIZE_DIRS, lint_unordered, False)):
        for rel in rel_dirs:
            base = os.path.join(root, rel)
            if not os.path.isdir(base):
                continue
            for dirpath, _, filenames in os.walk(base):
                for name in sorted(filenames):
                    if not name.endswith((".h", ".cc", ".cpp")):
                        continue
                    path = os.path.join(dirpath, name)
                    with open(path, encoding="utf-8") as f:
                        lines = f.read().splitlines()
                    findings.extend(rule_fn(os.path.relpath(path, root),
                                            lines))
    return findings


SELF_TEST_CLOCK = """\
#include <chrono>
void Tick() {
  auto t = std::chrono::steady_clock::now();
  (void)t;
}
"""

SELF_TEST_CLOCK_ALLOWED = """\
#include <chrono>
void Tick() {
  // invariant-lint: allow(clock-in-engine)
  auto t = std::chrono::steady_clock::now();
  (void)t;
}
"""

SELF_TEST_UNORDERED = """\
#include <string>
#include <unordered_map>
std::string Render(const std::unordered_map<int, int>& counts) {
  std::string out;
  for (const auto& [k, v] : counts) {
    out += std::to_string(k);
  }
  return out;
}
"""

SELF_TEST_UNORDERED_ALLOWED = """\
#include <string>
#include <unordered_map>
std::string Render(const std::unordered_map<int, int>& counts) {
  std::string out;
  // invariant-lint: allow(unordered-serialize)
  for (const auto& [k, v] : counts) {
    out += std::to_string(k);
  }
  return out;
}
"""


def self_test():
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        for rel, content in (
                ("src/chase/seeded_clock.cc", SELF_TEST_CLOCK),
                ("src/chase/allowed_clock.cc", SELF_TEST_CLOCK_ALLOWED),
                ("src/algebra/seeded_algebra_clock.cc", SELF_TEST_CLOCK),
                ("src/debugger/seeded_debugger_clock.cc", SELF_TEST_CLOCK),
                ("src/render/seeded_unordered.cc", SELF_TEST_UNORDERED),
                ("src/render/allowed_unordered.cc",
                 SELF_TEST_UNORDERED_ALLOWED)):
            path = os.path.join(tmp, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(content)
        findings = lint_tree(tmp)
        by_file = {os.path.basename(f[0]) for f in findings}
        if "seeded_clock.cc" not in by_file:
            failures.append("clock rule missed the seeded violation")
        if "seeded_algebra_clock.cc" not in by_file:
            failures.append("clock rule missed the src/algebra violation")
        if "seeded_debugger_clock.cc" not in by_file:
            failures.append("clock rule missed the src/debugger violation")
        if "allowed_clock.cc" in by_file:
            failures.append("clock rule ignored allow()")
        if "seeded_unordered.cc" not in by_file:
            failures.append("unordered rule missed the seeded violation")
        if "allowed_unordered.cc" in by_file:
            failures.append("unordered rule ignored allow()")
    if failures:
        for failure in failures:
            print("self-test FAILED:", failure, file=sys.stderr)
        return 1
    print("self-test OK: both rules catch seeded violations and honor "
          "allow()")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=".",
                        help="repository root (default: cwd)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the rules against seeded violations")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    findings = lint_tree(args.root)
    for path, line, rule, message in findings:
        print(f"{path}:{line}: [{rule}] {message}")
    if findings:
        print(f"{len(findings)} invariant violation(s)", file=sys.stderr)
        return 1
    print("invariant-lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
