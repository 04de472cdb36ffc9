#!/usr/bin/env python3
"""Builds the statistics daemon and the benchmark binary from source, then
runs one benchmark pass.

    python3 perfbench/run.py --workload estimate-single --seed 1 --seconds 10 --trace 0

Run it from the repository root. Build output goes to $CARGO_TARGET_DIR
(default `.bench_build`); generated tables, statistics stores and the
exact-count cache go to `.bench_work`. The last line of standard output is
the benchmark's JSON result; everything the builds print goes to standard
error. Exits non-zero, without a result, when either build fails.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def build(manifest, target, extra):
    if not manifest.is_file():
        sys.exit(f"perfbench: {manifest} is missing; run from a full checkout")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(manifest), *extra]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, check=False)
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                              capture_output=True, text=True).stdout.strip()
        if head:
            return head
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("crates", "compat", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in (".rs", ".toml", ".lock"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = pathlib.Path.cwd() / target
    build(ROOT / "Cargo.toml", target, ["-p", "sj-cli", "--bin", "sjsel"])
    build(ROOT / "perfbench" / "Cargo.toml", target, [])
    cmd = [str(target / "release" / "perfbench"), *sys.argv[1:],
           "--sjsel", str(target / "release" / "sjsel"),
           "--work", str(ROOT / ".bench_work"),
           "--commit", source_id()]
    sys.exit(subprocess.run(cmd, check=False).returncode)


if __name__ == "__main__":
    main()
