#!/usr/bin/env python3
"""Repo-specific static checks that clang-tidy cannot express.

Run from the repository root (CI runs it on every push):

    python3 tools/lint_repo.py            # all text checks
    python3 tools/lint_repo.py --include-check   # + header TU builds

Checks:

 1. rand-ban: no rand()/std::rand/srand outside the seeded RNG
    implementations in src/common/rng.* — every other module must
    draw from core RNGs or the entropy service so runs stay
    replayable.

 2. relaxed-justification: every std::memory_order_relaxed use needs
    an adjacent `// relaxed:` justification comment. One comment
    covers a contiguous cluster: a site is justified if the comment
    (or another justified site) appears within the preceding
    JUSTIFY_WINDOW lines.

 3. tsa-escape: QUAC_NO_THREAD_SAFETY_ANALYSIS may only appear in the
    lock-free ring internals (src/service/entropy_service.cc) and
    must carry a one-line justification comment directly above.

 4. annotated-mutexes: concurrent modules (src/service, src/net) may
    not declare raw std::mutex / std::condition_variable members or
    use std::lock_guard/std::unique_lock/std::scoped_lock — new
    mutexes must ship as annotated quac::Mutex + MutexLock so the
    thread-safety analysis sees them.

 5. include-check (--include-check): every public header under src/
    compiles on its own (self-contained includes). Needs a C++
    compiler; CI runs it, local runs may skip it for speed.

 6. header-reached: every src/**/*.hh is included by some file in
    src/, bench/, examples/ or e2ebench/ other than its own .cc. A
    header only tests include is a module nothing ships: delete it
    with its tests rather than keep a path no program runs.
"""

import argparse
import os
import re
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIRS = ["src", "tests", "bench", "examples"]
CXX_EXT = (".cc", ".cpp", ".hh", ".h")

# Trees whose includes count as a use of a src/ header (check 6);
# e2ebench/ is only read, never linted.
INCLUDER_DIRS = ["src", "bench", "examples", "e2ebench"]

# Files allowed to reference the C rand family (seeded RNG impls).
RAND_ALLOWED = {
    "src/common/rng.hh",
    "src/common/rng.cc",
}

# The only file allowed to use the analysis escape hatch (lock-free
# ring internals); currently it has zero uses, and keeping it that
# way is the acceptance bar.
TSA_ESCAPE_ALLOWED = {
    "src/service/shard_ring.cc",
}

# Modules whose mutexes must be annotated quac::Mutex.
ANNOTATED_MUTEX_DIRS = ("src/service/", "src/net/")

JUSTIFY_WINDOW = 8

RAND_RE = re.compile(r"(?<![\w:.])(?:std::)?s?rand\s*\(")
RELAXED_RE = re.compile(r"\bmemory_order_relaxed\b")
RELAXED_OK_RE = re.compile(r"//\s*relaxed:")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')
RAW_MUTEX_RE = re.compile(
    r"\bstd::(?:mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"condition_variable(?:_any)?|lock_guard|unique_lock|"
    r"scoped_lock|shared_lock)\b")


def repo_files(tops=SRC_DIRS):
    for top in tops:
        for root, _dirs, names in os.walk(os.path.join(REPO, top)):
            for name in sorted(names):
                if name.endswith(CXX_EXT):
                    path = os.path.join(root, name)
                    yield os.path.relpath(path, REPO)


def read_lines(rel):
    with open(os.path.join(REPO, rel), encoding="utf-8") as fh:
        return fh.read().splitlines()


def check_rand(rel, lines, errors):
    if rel in RAND_ALLOWED or not rel.startswith("src/"):
        return
    for i, line in enumerate(lines, 1):
        code = line.split("//", 1)[0]
        if RAND_RE.search(code):
            errors.append(
                f"{rel}:{i}: rand()/srand() outside src/common/rng.* "
                f"(use the seeded core RNGs)")


def check_relaxed(rel, lines, errors):
    justified_until = -1
    for i, line in enumerate(lines, 1):
        if RELAXED_OK_RE.search(line):
            justified_until = i + JUSTIFY_WINDOW
        if RELAXED_RE.search(line.split("//", 1)[0]):
            if i <= justified_until:
                # Chain: a justified site extends the window over a
                # contiguous cluster of relaxed operations.
                justified_until = max(justified_until,
                                      i + JUSTIFY_WINDOW)
            else:
                errors.append(
                    f"{rel}:{i}: naked memory_order_relaxed — add a "
                    f"`// relaxed: <why no ordering is needed>` "
                    f"comment within the {JUSTIFY_WINDOW} lines above")


def check_tsa_escape(rel, lines, errors):
    for i, line in enumerate(lines, 1):
        if "QUAC_NO_THREAD_SAFETY_ANALYSIS" not in line:
            continue
        if rel == "src/common/thread_annotations.hh":
            continue  # the definition itself
        if rel not in TSA_ESCAPE_ALLOWED:
            errors.append(
                f"{rel}:{i}: QUAC_NO_THREAD_SAFETY_ANALYSIS outside "
                f"the lock-free ring internals — fix the lock "
                f"discipline instead of suppressing the analysis")
        elif i < 2 or "//" not in lines[i - 2]:
            errors.append(
                f"{rel}:{i}: analysis escape without a one-line "
                f"justification comment directly above")


def check_annotated_mutexes(rel, lines, errors):
    if not rel.startswith(ANNOTATED_MUTEX_DIRS):
        return
    for i, line in enumerate(lines, 1):
        code = line.split("//", 1)[0]
        match = RAW_MUTEX_RE.search(code)
        if match:
            errors.append(
                f"{rel}:{i}: {match.group(0)} in {rel.split('/')[1]}/"
                f" — use quac::Mutex / MutexLock / CondVar from "
                f"common/thread_annotations.hh so the thread-safety "
                f"analysis sees the lock")


def check_headers_reached(errors):
    headers = [rel for rel in repo_files(["src"])
               if rel.endswith(".hh")]
    reached = set()
    for rel in repo_files(INCLUDER_DIRS):
        for line in read_lines(rel):
            match = INCLUDE_RE.match(line)
            if not match:
                continue
            target = "src/" + match.group(1)
            if rel != target[:-len(".hh")] + ".cc":
                reached.add(target)
    for rel in headers:
        if rel not in reached:
            errors.append(
                f"{rel}: no file outside tests/ includes it — delete "
                "the module and its tests, or use it")


def check_headers_self_contained(errors):
    cxx = os.environ.get("CXX", "c++")
    headers = [rel for rel in repo_files()
               if rel.startswith("src/") and rel.endswith(".hh")]
    with tempfile.TemporaryDirectory() as tmp:
        for rel in headers:
            tu = os.path.join(tmp, "tu.cc")
            with open(tu, "w", encoding="utf-8") as fh:
                fh.write(f'#include "{rel[len("src/"):]}"\n')
            proc = subprocess.run(
                [cxx, "-std=c++20", "-fsyntax-only",
                 "-I", os.path.join(REPO, "src"), tu],
                capture_output=True, text=True)
            if proc.returncode != 0:
                first = proc.stderr.strip().splitlines()
                detail = first[0] if first else "compile failed"
                errors.append(
                    f"{rel}: header is not self-contained: {detail}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--include-check", action="store_true",
        help="also compile every src/ header standalone")
    args = parser.parse_args()

    errors = []
    for rel in repo_files():
        lines = read_lines(rel)
        check_rand(rel, lines, errors)
        check_relaxed(rel, lines, errors)
        check_tsa_escape(rel, lines, errors)
        check_annotated_mutexes(rel, lines, errors)
    check_headers_reached(errors)
    if args.include_check:
        check_headers_self_contained(errors)

    if errors:
        for error in errors:
            print(error, file=sys.stderr)
        print(f"lint_repo: {len(errors)} problem(s)", file=sys.stderr)
        return 1
    print("lint_repo: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
