#!/usr/bin/env python3
"""Build and run the repository's benchmark (see METRICS.md).

Run from the root of a checkout of the repository:

    python3 sipperf/run.py --workload olap_aip --seed 1 --seconds 30 --trace 0

The Go program is built from the checkout's sources into the build
directory ($CARGO_TARGET_DIR, default .bench_build), with the Go build cache
and every other file the toolchain or the benchmark writes kept inside it.
The last line of standard output is the run's JSON result.
"""
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT = 170  # seconds; a run must end within 180


def fail(msg, code=2):
    print("sipperf: " + msg, file=sys.stderr)
    sys.exit(code)


def main():
    # The benchmark measures the engine in this checkout; without its
    # sources there is nothing to build.
    for f in ("go.mod", "sip.go", "stream.go"):
        if not os.path.isfile(os.path.join(ROOT, f)):
            fail("run from the repository root: %s not found" % f)
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    home = os.path.join(build, "home")
    tmp = os.path.join(build, "tmp")
    spans = os.path.join(build, "spans")
    for d in (home, tmp, spans):
        os.makedirs(d, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "HOME": home,
        "XDG_CONFIG_HOME": os.path.join(home, ".config"),
        "XDG_CACHE_HOME": os.path.join(home, ".cache"),
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,  # spill run files
        "GOFLAGS": "-mod=mod",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "GOTOOLCHAIN": "local",
        "GOTELEMETRY": "off",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(build, "sipperf")
    try:
        subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                       stdout=sys.stderr, check=True, timeout=850)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        fail("build failed: %s" % e)
    args = [binary, "-out", spans] + sys.argv[1:]
    proc = subprocess.Popen(args, cwd=ROOT, env=env)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT, 3)
    sys.exit(code)


if __name__ == "__main__":
    main()
