#!/usr/bin/env python3
"""loren-lint: the project's concurrency static-analysis pass.

Four machine-checked rules over the service stack (docs/static-analysis.md
holds the catalog and the annotation grammar):

  MO01  every std::atomic declaration carries '// mo: <orders> — <why>'
  MO02  memory_order_relaxed ops match their declared contract or carry
        '// mo:relaxed-ok(<reason>)'   (telemetry stripes out of scope)
  SP01  every atomic RMW/CAS in sim-visible sources has a LOREN_SIM_POINT
        in its enclosing statement list or '// sim:exempt(<reason>)'
  LK01  raw std::mutex/lock_guard banned in sim-visible sources: SimMutex,
        or '// sim:lock-ok(<reason>)' on the declaration
  CL01  alignas(<integer literal>) banned: use loren::kCacheLine
        (platform/cacheline.h) or '// cl:raw-ok(<reason>)'

Usage:
  loren_lint.py --root <repo> [--compdb <build>/compile_commands.json]
  loren_lint.py --selftest <fixture-dir>       # golden-corpus self-check
  loren_lint.py --root <repo> --list           # dump scanned files + scopes

Extraction is the self-contained lexical model (model.py). The compile
database, when given, is used to cross-check that every compiled source
under src/ was scanned.

Exit codes: 0 clean, 1 findings (or selftest mismatch), 2 usage/internal
error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import model  # noqa: E402
import rules  # noqa: E402

SIM_VISIBLE_DIRS = ("src/tas", "src/elastic", "src/renaming", "src/lease")
SIM_VISIBLE_FILES = ("src/platform/epoch.h",)
TELEMETRY_DIR = "src/telemetry"
CL_EXTRA_DIRS = ("bench", "tests", "examples")
FIXTURE_DIR = "tests/lint_fixtures"
SOURCE_EXTS = (".h", ".hpp", ".cpp", ".cc")


def rel(path, root):
    return os.path.relpath(path, root).replace(os.sep, "/")


def is_sim_visible(path, root):
    r = rel(path, root)
    return (r in SIM_VISIBLE_FILES
            or any(r.startswith(d + "/") for d in SIM_VISIBLE_DIRS))


def project_scopes(root):
    """Rule scopes over the real tree (fixture mode overrides these)."""
    def in_src(p):
        return rel(p, root).startswith("src/")

    def mo02_scope(p):
        r = rel(p, root)
        return r.startswith("src/") and not r.startswith(TELEMETRY_DIR + "/")

    def sim_scope(p):
        return is_sim_visible(p, root)

    def cl_scope(p):
        r = rel(p, root)
        if r.startswith(FIXTURE_DIR + "/"):
            return False
        return r.startswith(("src/",) + tuple(d + "/" for d in CL_EXTRA_DIRS))

    return {
        "MO01": in_src,
        "MO02": mo02_scope,
        "SP01": sim_scope,
        "LK01": sim_scope,
        "CL01": cl_scope,
    }


def collect_files(root):
    files = []
    for top in ("src",) + CL_EXTRA_DIRS:
        base = os.path.join(root, top)
        if not os.path.isdir(base):
            continue
        for dirpath, dirnames, filenames in os.walk(base):
            if rel(dirpath, root).startswith(FIXTURE_DIR):
                dirnames[:] = []
                continue
            for name in sorted(filenames):
                if name.endswith(SOURCE_EXTS):
                    files.append(os.path.join(dirpath, name))
    return sorted(files)


def compdb_cross_check(compdb_path, root, scanned):
    """Every compiled source under src/ must be in the scan set; a file
    the build knows about but the linter missed is a silent hole."""
    try:
        with open(compdb_path) as f:
            entries = json.load(f)
    except (OSError, ValueError) as e:
        return [f"warning: compile_commands.json unreadable ({e}); "
                "tree-walk file set used as-is"]
    notes = []
    scanned_set = {os.path.realpath(p) for p in scanned}
    for entry in entries:
        src = entry.get("file", "")
        if not os.path.isabs(src):
            src = os.path.join(entry.get("directory", ""), src)
        src = os.path.realpath(src)
        try:
            r = rel(src, os.path.realpath(root))
        except ValueError:
            continue
        if r.startswith("src/") and src not in scanned_set:
            notes.append(f"error: compiled source not scanned: {r}")
    return notes


def run_project(args):
    root = os.path.abspath(args.root)
    files = collect_files(root)
    if not files:
        print(f"loren-lint: no sources under {root}", file=sys.stderr)
        return 2
    extractions = [model.extract_file(p) for p in files]
    ctx = rules.RuleContext(extractions, project_scopes(root))
    findings = rules.run_all(ctx, only=args.rules)

    notes = []
    if args.compdb:
        notes = compdb_cross_check(args.compdb, root, files)
    hard_notes = [n for n in notes if n.startswith("error:")]
    for n in notes:
        print(f"loren-lint: {n}", file=sys.stderr)

    if args.list:
        for p in files:
            print(rel(p, root))
    for f in findings:
        print(f.render(root))
    n_files = len(files)
    if findings or hard_notes:
        print(f"loren-lint: {len(findings)} finding(s) over "
              f"{n_files} files", file=sys.stderr)
        return 1
    print(f"loren-lint: clean over {n_files} files",
          file=sys.stderr)
    return 0


def run_selftest(args):
    """Golden corpus check: the fixtures must trigger *exactly* the
    finding IDs their '// lint-expect: <ID>' markers declare — same
    file, same line set per rule, nothing extra, nothing missing."""
    fdir = os.path.abspath(args.selftest)
    files = []
    for dirpath, _dirnames, filenames in os.walk(fdir):
        for name in sorted(filenames):
            if name.endswith(SOURCE_EXTS):
                files.append(os.path.join(dirpath, name))
    if not files:
        print(f"loren-lint: no fixtures under {fdir}", file=sys.stderr)
        return 2
    extractions = [model.extract_file(p) for p in files]
    # Fixtures are in scope for every rule.
    scopes = {rid: (lambda p: True) for rid in rules.ALL_RULE_IDS}
    ctx = rules.RuleContext(extractions, scopes)
    findings = rules.run_all(ctx)

    expected = set()
    for ex in extractions:
        for line, rule_id in ex.expects:
            expected.add((ex.path, line, rule_id))
    actual = {(f.file, f.line, f.rule) for f in findings}

    ok = True
    for path, line, rule_id in sorted(expected - actual):
        ok = False
        print(f"{rel(path, fdir)}:{line}: expected {rule_id}, not fired")
    for f in sorted(findings, key=lambda f: (f.file, f.line, f.rule)):
        if (f.file, f.line, f.rule) not in expected:
            ok = False
            print(f"{rel(f.file, fdir)}:{f.line}: unexpected {f.rule}: "
                  f"{f.message}")
    n_pos = len(expected)
    if ok:
        print(f"loren-lint selftest: {len(files)} fixtures, "
              f"{n_pos} expected findings, all exact", file=sys.stderr)
        return 0
    print(f"loren-lint selftest: corpus mismatch "
          f"(expected {n_pos}, fired {len(actual)})", file=sys.stderr)
    return 1


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="loren-lint",
        description="concurrency static-analysis pass for the loren stack")
    ap.add_argument("--root", default=".",
                    help="repository root (default: cwd)")
    ap.add_argument("--compdb", default=None,
                    help="path to compile_commands.json (cross-checks "
                         "coverage)")
    ap.add_argument("--rules", nargs="*", default=None,
                    metavar="ID", help="run only these rule IDs")
    ap.add_argument("--list", action="store_true",
                    help="print the scanned file list")
    ap.add_argument("--selftest", metavar="FIXTURE_DIR", default=None,
                    help="run the golden-corpus self-check instead of "
                         "linting the tree")
    args = ap.parse_args(argv)
    try:
        if args.selftest:
            return run_selftest(args)
        return run_project(args)
    except BrokenPipeError:
        return 2


if __name__ == "__main__":
    sys.exit(main())
