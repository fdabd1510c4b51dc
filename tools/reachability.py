#!/usr/bin/env python3
"""Reachability audit: every out-of-line function in libuparc must be reached
by a shipped binary, or be listed in tools/reachability_allow.txt.

Usage, from anywhere:

    python3 tools/reachability.py

The script builds libuparc from the sources src/CMakeLists.txt lists, at
-O0 -ffunction-sections, in a temporary directory. It then links every
program under tools/, bench/ and examples/ (each .cpp that defines main) and
perfbench/perfbench.cpp against the whole archive with --gc-sections
--print-gc-sections, and intersects the sections each link dropped. A
non-COMDAT .text section of a libuparc object that every link dropped is a
function no shipped binary reaches. Inline functions and template
instantiations sit in COMDAT groups and are left out: a copy is emitted in
every object that uses one, so a dropped copy says nothing. Only named
uparc:: functions count: a lambda, and a template instantiated over a
function's local types, is dropped with the function that holds it.

Each allowlist line is `<demangled signature> -- <reason>`, and the reason
names the test (Suite.Case) that calls the function. Exits 0 when the
unreachable functions are exactly the listed ones; 1 when a function is
unreachable but unlisted, or a listed one is reachable, gone, or names no
existing test; 2 when the build fails.
"""

import concurrent.futures
import os
import re
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ALLOWLIST = os.path.join(ROOT, "tools", "reachability_allow.txt")
CXXFLAGS = ["-std=c++20", "-O0", "-ffunction-sections", "-I", os.path.join(ROOT, "src")]
JOBS = min(4, os.cpu_count() or 1)
REMOVED = re.compile(r"removing unused section '(\.text\.[^']+)' in file '.*libuparc\.a\((.+)\)'")
TEST_NAME = re.compile(r"\b([A-Za-z_]\w*)\.([A-Za-z_]\w*)\b")
TEST_DEF = re.compile(r"\bTEST(?:_F|_P)?\(\s*(\w+)\s*,\s*(\w+)\s*\)")


def run(cmd):
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if p.returncode != 0:
        sys.stderr.write(f"reachability: command failed: {' '.join(cmd)}\n{p.stdout}")
        sys.exit(2)
    return p.stdout


def library_sources():
    text = open(os.path.join(ROOT, "src", "CMakeLists.txt")).read()
    m = re.search(r"add_library\(uparc STATIC(.*?)\)", text, re.S)
    return m.group(1).split()


def programs():
    found = []
    for d in ("tools", "bench", "examples"):
        for name in sorted(os.listdir(os.path.join(ROOT, d))):
            path = os.path.join(ROOT, d, name)
            if name.endswith(".cpp") and re.search(r"\bint main\(", open(path).read()):
                found.append(path)
    return found + [os.path.join(ROOT, "perfbench", "perfbench.cpp")]


def build_library(work):
    def compile_one(src):
        obj = os.path.join(work, src.replace("/", "_") + ".o")
        run(["g++", *CXXFLAGS, "-c", os.path.join(ROOT, "src", src), "-o", obj])
        return obj

    with concurrent.futures.ThreadPoolExecutor(JOBS) as pool:
        objects = list(pool.map(compile_one, library_sources()))
    lib = os.path.join(work, "libuparc.a")
    run(["ar", "rcs", lib, *objects])
    return lib


def dropped_sections(work, lib, program):
    exe = os.path.join(work, os.path.basename(program)[:-4])
    out = run(["g++", *CXXFLAGS, program, "-o", exe, "-Wl,--whole-archive", lib,
               "-Wl,--no-whole-archive", "-Wl,--gc-sections", "-Wl,--print-gc-sections",
               "-pthread"])
    return {(m.group(2), m.group(1)) for m in REMOVED.finditer(out)}


def text_sections(lib):
    """(object, section) pairs of libuparc's .text sections outside COMDAT groups."""
    sections, comdat, obj = set(), set(), None
    for line in run(["readelf", "-gSW", lib]).splitlines():
        if line.startswith("File: "):
            obj = line[line.index("(") + 1:line.rindex(")")]
        elif m := re.match(r"\s+\[\s*\d+\]\s+(\.text\.\S+)(\s+PROGBITS)?", line):
            (sections if m.group(2) else comdat).add((obj, m.group(1)))
    return sections - comdat


def demangle(names):
    names = sorted(names)
    p = subprocess.run(["c++filt"], input="\n".join(names), stdout=subprocess.PIPE, text=True,
                       check=True)
    return dict(zip(names, p.stdout.splitlines()))


def test_names():
    found = set()
    tests = os.path.join(ROOT, "tests")
    for name in os.listdir(tests):
        if name.endswith(".cpp"):
            text = open(os.path.join(tests, name)).read()
            found |= {f"{suite}.{case}" for suite, case in TEST_DEF.findall(text)}
    return found


def read_allowlist():
    entries = {}
    for n, line in enumerate(open(ALLOWLIST), 1):
        line = line.strip()
        if line and not line.startswith("#"):
            signature, _, reason = line.partition(" -- ")
            entries[signature.strip()] = (n, reason.strip())
    return entries


def main():
    binaries = programs()
    with tempfile.TemporaryDirectory(prefix="uparc-reach-") as work:
        lib = build_library(work)
        with concurrent.futures.ThreadPoolExecutor(JOBS) as pool:
            drops = list(pool.map(lambda p: dropped_sections(work, lib, p), binaries))
        functions = text_sections(lib)

    dropped = functions & set.intersection(*drops)
    names = demangle({sec[len(".text."):] for _, sec in functions})
    reachable = {names[sec[len(".text."):]] for _, sec in functions - dropped}
    unreachable = {names[sec[len(".text."):]] for _, sec in dropped} - reachable
    unreachable = {fn for fn in unreachable if fn.startswith("uparc::") and "{" not in fn}
    allowed = read_allowlist()
    tests = test_names()

    problems = []
    for fn in sorted(unreachable - allowed.keys()):
        problems.append(f"unreachable and not in the allowlist: {fn}")
    for fn, (line, reason) in allowed.items():
        where = f"reachability_allow.txt:{line}"
        if fn in reachable:
            problems.append(f"{where}: reached by a shipped binary, drop the entry: {fn}")
        elif fn not in unreachable:
            problems.append(f"{where}: no such function in libuparc: {fn}")
        if not any(f"{s}.{c}" in tests for s, c in TEST_NAME.findall(reason)):
            problems.append(f"{where}: the reason names no test in tests/: {fn}")

    print(f"reachability: {len(binaries)} programs, {len(unreachable)} unreachable "
          f"functions, {len(allowed)} allowlisted")
    for p in problems:
        print(p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
