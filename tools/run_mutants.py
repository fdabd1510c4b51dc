#!/usr/bin/env python3
"""Applies each mutant in tools/mutants.json to a copy of the tree and checks
that tier-1 or verify-determinism catches it.

Usage, from the repository root:

    python3 tools/run_mutants.py [--work DIR] [--only NAME ...] [--jobs N]

The tree (tracked and untracked, not ignored, files) is copied into
DIR/tree (a fresh temporary directory by default) and built there once with
CMake's default build type. The unmutated copy must pass first. Then, for
each mutant: its edits are applied (each `find` snippet must occur exactly
once in its file), the copy is rebuilt incrementally, tier-1 (`ctest`) and
`uparc_cli verify-determinism --scenario all` run, and the files are
restored. A mutant is killed when either check fails; a mutant that does not
build is reported as invalid. The report lists the failing tests per mutant
and is also written to DIR/report.json. Exits 0 only when every mutant is
killed. Each mutant rebuilds part of the tree, so this is not a CI step.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FAILED_TEST = re.compile(r"^\s*\d+ - (.+?)(?:\s+# .*)?\s+\([^()]*\)\s*$")


def tree_files():
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "ls-files", "--cached", "--others", "--exclude-standard"],
                             cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        return [f for f in out.stdout.splitlines() if os.path.isfile(os.path.join(ROOT, f))]
    files = []
    for base, dirs, names in os.walk(ROOT):
        dirs[:] = [d for d in dirs if not d.startswith(("build", ".bench_build", ".git"))]
        files += [os.path.relpath(os.path.join(base, n), ROOT) for n in names]
    return files


def copy_tree(dest):
    for rel in tree_files():
        target = os.path.join(dest, rel)
        os.makedirs(os.path.dirname(target), exist_ok=True)
        src = os.path.join(ROOT, rel)
        # A plain copy stamps the current time, so a changed file is newer
        # than the objects an earlier run built from it.
        if not os.path.exists(target) or open(src, "rb").read() != open(target, "rb").read():
            shutil.copy(src, target)


def run(cmd, cwd, log, timeout):
    with open(log, "w") as f:
        try:
            p = subprocess.run(cmd, cwd=cwd, stdout=f, stderr=subprocess.STDOUT, text=True,
                               timeout=timeout)
            return p.returncode
        except subprocess.TimeoutExpired:
            f.write("\n[timed out after %d s]\n" % timeout)
            return -1


def check(tree, build, jobs, logs, tag):
    """Builds, then runs tier-1 and verify-determinism. Returns a result dict."""
    result = {"built": False, "tests_failed": [], "ctest_rc": None, "verify_rc": None}
    if run(["cmake", "--build", build, "-j", str(jobs)], tree,
           os.path.join(logs, tag + ".build.log"), 3600) != 0:
        return result
    result["built"] = True
    ctest_log = os.path.join(logs, tag + ".ctest.log")
    result["ctest_rc"] = run(["ctest", "--test-dir", build, "-j", str(jobs), "--timeout", "300"],
                             tree, ctest_log, 3600)
    with open(ctest_log) as f:
        summary = f.read().partition("The following tests FAILED:")[2]
    result["tests_failed"] = [m.group(1) for m in map(FAILED_TEST.match, summary.splitlines())
                              if m]
    result["verify_rc"] = run([os.path.join(build, "tools", "uparc_cli"), "verify-determinism",
                               "--scenario", "all"], tree,
                              os.path.join(logs, tag + ".verify.log"), 1800)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--work", help="scratch directory (default: a new temporary one)")
    parser.add_argument("--only", nargs="*", default=[], help="mutant names to run")
    parser.add_argument("--jobs", type=int, default=min(4, os.cpu_count() or 1))
    args = parser.parse_args()

    with open(os.path.join(ROOT, "tools", "mutants.json")) as f:
        mutants = json.load(f)
    unknown = set(args.only) - {m["name"] for m in mutants}
    if unknown:
        print("run_mutants: unknown mutant(s): %s" % ", ".join(sorted(unknown)), file=sys.stderr)
        return 2
    if args.only:
        mutants = [m for m in mutants if m["name"] in args.only]

    work = os.path.abspath(args.work or tempfile.mkdtemp(prefix="uparc-mutants-"))
    tree = os.path.join(work, "tree")
    build = os.path.join(tree, "build")
    logs = os.path.join(work, "logs")
    os.makedirs(logs, exist_ok=True)
    copy_tree(tree)
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        if run(["cmake", "-S", tree, "-B", build] + generator, tree,
               os.path.join(logs, "configure.log"), 600) != 0:
            print("run_mutants: configure failed, see %s" % logs, file=sys.stderr)
            return 1

    # Every snippet must match exactly once before anything is built.
    for m in mutants:
        for e in m["edits"]:
            with open(os.path.join(tree, e["file"])) as f:
                hits = f.read().count(e["find"])
            if hits != 1:
                print("run_mutants: %s: snippet found %d times in %s" % (m["name"], hits, e["file"]),
                      file=sys.stderr)
                return 2

    print("baseline: building and checking the unmutated copy in %s" % tree, flush=True)
    base = check(tree, build, args.jobs, logs, "baseline")
    if not base["built"] or base["ctest_rc"] != 0 or base["verify_rc"] != 0:
        print("run_mutants: the unmutated tree does not pass: %s (logs in %s)" % (base, logs),
              file=sys.stderr)
        return 1

    report = []
    for m in mutants:
        originals = {}
        for e in m["edits"]:
            path = os.path.join(tree, e["file"])
            if path not in originals:
                with open(path) as f:
                    originals[path] = f.read()
        for e in m["edits"]:
            path = os.path.join(tree, e["file"])
            with open(path) as f:
                text = f.read()
            with open(path, "w") as f:
                f.write(text.replace(e["find"], e["replace"], 1))
        try:
            r = check(tree, build, args.jobs, logs, m["name"])
        finally:
            for path, text in originals.items():
                with open(path, "w") as f:
                    f.write(text)
        r["name"] = m["name"]
        r["killed"] = r["built"] and (r["ctest_rc"] != 0 or r["verify_rc"] != 0)
        report.append(r)
        if not r["built"]:
            verdict = "INVALID (does not build)"
        elif r["killed"]:
            verdict = "killed: %d tier-1 test(s) failed%s" % (
                len(r["tests_failed"]),
                ", verify-determinism failed" if r["verify_rc"] != 0 else "")
        else:
            verdict = "SURVIVED"
        print("%-36s %s" % (m["name"], verdict), flush=True)
        for name in r["tests_failed"][:8]:
            print("    %s" % name)
        if len(r["tests_failed"]) > 8:
            print("    ... and %d more" % (len(r["tests_failed"]) - 8))

    with open(os.path.join(work, "report.json"), "w") as f:
        json.dump(report, f, indent=2)
    killed = sum(r["killed"] for r in report)
    print("%d of %d mutants killed (report: %s)" % (killed, len(report),
                                                    os.path.join(work, "report.json")))
    return 0 if killed == len(report) else 1


if __name__ == "__main__":
    sys.exit(main())
