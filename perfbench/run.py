#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the repository root.

    python3 perfbench/run.py --workload mb-shallow --seed 7 --seconds 20 --trace 0

The Go toolchain's caches, the binary and every temporary file stay under
.bench_build in the current directory, so a run reads and writes nothing
outside the checkout. All arguments are passed to the benchmark binary;
its exit code is this script's exit code. Without the repository around
perfbench/ the build fails and the script exits non-zero.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOMODCACHE", "gomodcache"),
                     ("GOPATH", "gopath"), ("TMPDIR", "tmp"), ("GOTMPDIR", "tmp"),
                     ("HOME", "home"), ("XDG_CONFIG_HOME", "home/.config"),
                     ("XDG_CACHE_HOME", "home/.cache")):
        env[key] = os.path.join(build, sub)
        os.makedirs(env[key], exist_ok=True)
    env.update(GOFLAGS="", GOWORK="off", GOTOOLCHAIN="local", GOPROXY="off",
               CGO_ENABLED="0")
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench_dir, env=env,
                           stderr=subprocess.DEVNULL)
    if built.returncode != 0:
        # Without usable version control around the checkout (or with
        # none), build unstamped; provenance then names the source digest.
        built = subprocess.run(["go", "build", "-buildvcs=false", "-o", binary, "."],
                               cwd=bench_dir, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
