#!/usr/bin/env python3
"""Build the natix CLI and the benchmark from source, then run one workload.

Usage (from anywhere; paths are resolved from this file):

    python3 perfbench/run.py --workload query --seed 1 --seconds 10 --trace 0

Builds with cargo into $CARGO_TARGET_DIR (default: .bench_build at the
repository root), runs `natix-perfbench` with the `natix` binary it needs
for the `partition` workload, and passes its standard output through: the
last line is the run's JSON result. Scratch files, spans and full result
records go to .bench_out at the repository root.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_id():
    """The commit, or a digest of the sources when there is no git."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        if r.returncode == 0:
            return r.stdout.strip()
    digest = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "crates", "perfbench"]:
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else []
        for d, dirs, files in os.walk(base):
            dirs[:] = sorted(x for x in dirs if x != "target")
            paths += [os.path.join(d, f) for f in sorted(files)]
        for p in paths:
            digest.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                digest.update(f.read())
    return "src-" + digest.hexdigest()[:16]


def cargo(args, env):
    # Cargo's output goes to stderr so the result stays the last stdout line.
    r = subprocess.run(
        ["cargo", "build", "--release", "--offline", "-q"] + args,
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if r.returncode != 0:
        fail(f"cargo build {' '.join(args)} failed ({r.returncode})")


def main():
    for need in ["Cargo.toml", "crates/cli/Cargo.toml", "perfbench/Cargo.toml"]:
        if not os.path.isfile(os.path.join(ROOT, need)):
            fail(f"{need} not found: run from a checkout of the repository")
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    cargo(["-p", "natix-cli"], env)
    cargo(["--manifest-path", "perfbench/Cargo.toml"], env)
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "natix-perfbench"),
        *sys.argv[1:],
        "--natix",
        os.path.join(release, "natix"),
        "--out",
        os.path.join(ROOT, ".bench_out"),
        "--commit",
        source_id(),
    ]
    try:
        r = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
