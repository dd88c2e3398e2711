#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds `dbp` (the root package's CLI, which the serving workload spawns)
and the benchmark package in release mode into CARGO_TARGET_DIR
(default `.bench_build`), then runs one workload. The last line of
standard output is the result JSON; the line before it holds the run
facts. Any further arguments (for example `--size tiny`) are passed on.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(target_dir):
    for manifest, extra in (("Cargo.toml", ["--bin", "dbp"]), ("perfbench/Cargo.toml", [])):
        cmd = ["cargo", "build", "--release", "--offline", "--manifest-path",
               os.path.join(ROOT, manifest)] + extra
        # Cargo reports on stderr; keep stdout for the result.
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              env=dict(os.environ, CARGO_TARGET_DIR=target_dir))
        if done.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def fact(cmd):
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    out = done.stdout.strip()
    return out if done.returncode == 0 and out else "unknown"


def source_digest():
    """SHA-256 over the sources the benchmark builds, for checkouts
    that are not git repositories."""
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "src", "crates", "shims", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
            if "/target" not in d)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def main():
    target_dir = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(target_dir):
        target_dir = os.path.join(ROOT, target_dir)
    build(target_dir)
    env = dict(os.environ,
               PERFBENCH_GIT_REV=fact(["git", "rev-parse", "HEAD"]),
               PERFBENCH_RUSTC=fact(["rustc", "--version"]),
               PERFBENCH_SOURCE_DIGEST=source_digest())
    release = os.path.join(target_dir, "release")
    cmd = [os.path.join(release, "perfbench"), *sys.argv[1:],
           "--dbp", os.path.join(release, "dbp")]
    sys.exit(subprocess.run(cmd, cwd=ROOT, env=env).returncode)


if __name__ == "__main__":
    main()
