#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload browse-node --seed 1 --seconds 20 --trace 0

The Go program in perfbench/ is built into .bench_build/ with a build
cache there too, so the run reads and writes only inside the checkout.
Its standard output is passed through; the last line is the JSON result.
A failed build exits 1 without printing a result.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main():
    root = os.getcwd()
    src = os.path.join(root, "perfbench")
    build = os.path.join(root, ".bench_build")
    os.makedirs(build, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "mod"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOENV": "off",
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "-mod=readonly",
        "GOPROXY": "off",
    })
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=src, env=env,
                           stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           timeout=BUILD_TIMEOUT_S, check=False)
    if built.returncode != 0:
        sys.stderr.write(built.stdout.decode(errors="replace"))
        sys.stderr.write("perfbench: build failed\n")
        return 1
    args = sys.argv[1:] + ["--spans", os.path.join(".bench_build", "spans")]
    done = subprocess.run([binary] + args, cwd=root, env=env,
                          timeout=RUN_TIMEOUT_S, check=False)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
