#!/usr/bin/env python3
"""Build and run the parqo benchmark from the root of a parqo checkout.

    python3 perfbench/run.py --workload optimize|serve|execute|simulate \
        --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune into _build, with dune's shared
cache off and the compiler's temporary files under _build, so nothing is
written outside the checkout; then runs it, passing the moment it
started it, from which the run's set-up time counts.
The last line of standard output is the run's JSON result.
"""
import os
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def git_rev():
    if not os.path.isdir(".git"):
        return "unknown"
    r = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write("perfbench: run from the root of a parqo checkout "
                         "(no dune-project or lib/ here)\n")
        return 2
    tmp = os.path.abspath(os.path.join("_build", "perfbench-tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet",
         "./perfbench/main.exe"],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode
    rev = git_rev()
    run = subprocess.run(
        [EXE, *sys.argv[1:], "--git-rev", rev,
         "--launched", "%.6f" % time.time()])
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
