#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the repository root.

    python3 perfbench/run.py --workload point-read --seed 1 --seconds 10 --trace 0

Builds perfbench/ (its own Go module, which uses the repository's module
through a replace directive) into .bench_build/, keeping the Go build cache
and temporary files there too, then runs it with the given arguments. The
last line of standard output is the result object; the exit code is the
benchmark's. A failed build exits non-zero without printing a result.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")


def go_env():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOMODCACHE": os.path.join(BUILD, "gomodcache"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "GOENV": "off",
        "GOFLAGS": "",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "GOPROXY": "off",
        "CGO_ENABLED": "0",
    })
    return env


def source_revision():
    """The git commit when the checkout is a repository, else a hash of the
    Go sources, so every result names the code it measured."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-" + h.hexdigest()[:16]


def main():
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    build = subprocess.run(["go", "build", "-o", BINARY, "."],
                           cwd=os.path.join(ROOT, "perfbench"), env=go_env())
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    args = [BINARY, "--commit", source_revision(),
            "--work", os.path.join(BUILD, "work")] + sys.argv[1:]
    return subprocess.run(args, cwd=ROOT).returncode


if __name__ == "__main__":
    try:
        sys.exit(main())
    except OSError as e:  # no go toolchain, unreadable tree
        print("perfbench:", e, file=sys.stderr)
        sys.exit(1)
