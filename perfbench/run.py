#!/usr/bin/env python3
"""Builds and runs the bropt end-to-end benchmark.

Usage (from the root of a checkout):
  python3 perfbench/run.py --workload native-suite|compile-suite|daemon-mix \
      --seed N --seconds S --trace 0|1

Configures perfbench/ with CMake into .bench_build/perfbench (the first run
builds the bropt libraries from source; later runs only check they are up to
date), then runs the benchmark binary.  Build output goes to stderr; the
benchmark's last stdout line is the result object.  Everything the run writes
stays under .bench_build/ and .bench_run/ in the checkout.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN = os.path.join(ROOT, ".bench_run")


def source_digest():
    """Content digest of the sources the benchmark builds (the checkout is
    not a git repository, so this stands in for the commit)."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    generator = ["-G", "Ninja"] if subprocess.run(
        ["ninja", "--version"], stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL).returncode == 0 else []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                     BUILD, "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    return subprocess.run(
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr).returncode == 0


def main():
    try:
        ok = build()
    except OSError as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        ok = False
    if not ok:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    tmp = os.path.join(RUN, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    cmd = [os.path.join(BUILD, "perfbench")] + sys.argv[1:] + [
        "--source-digest", source_digest()]
    return subprocess.run(cmd, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
