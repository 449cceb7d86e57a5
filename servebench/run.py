#!/usr/bin/env python3
"""Builds and runs the serving benchmark from a source checkout.

    python3 servebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 servebench/run.py --cost-table --seed N

Run from the checkout root. The first call configures and builds the
servebench CMake package (servebench/CMakeLists.txt, which compiles ../src)
into .bench_build/servebench, runs the input self-test and trains the demo
artifacts once; later calls reuse all three. The measuring run's last stdout
line is the result JSON, with exactly the metrics BENCHMARK.json declares
for the mode: end_to_end with --trace 0, per_layer with --trace 1.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "servebench")
BINARY = os.path.join(BUILD, "servebench")
FIXTURES = os.path.join(BUILD, "fixtures")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def call(cmd, **kwargs):
    """Runs a helper command with its output on stderr."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT, **kwargs).returncode


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        if call(["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"]) != 0:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    if call(["cmake", "--build", BUILD, "-j", jobs]) != 0:
        fail("build failed")
    if call([os.path.join(BUILD, "servebench_selftest")]) != 0:
        fail("input self-test failed")
    # Fixtures are artifacts of this build: retrain when the binary changes.
    stamp = os.path.join(FIXTURES, "built-by")
    built_by = str(os.stat(BINARY).st_mtime_ns)
    if os.path.exists(FIXTURES):
        stamped = ""
        if os.path.exists(stamp):
            with open(stamp) as f:
                stamped = f.read()
        if stamped != built_by:
            shutil.rmtree(FIXTURES)
    if call([BINARY, "--prepare-fixtures", FIXTURES]) != 0:
        fail("training the demo artifacts failed")
    with open(stamp, "w") as f:
        f.write(built_by)


def source_id():
    """The commit when the checkout is a git repository, else a digest of
    the sources the benchmark builds."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha256()
    for top in ("src", "servebench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "sources-sha256:" + h.hexdigest()[:16]


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return bench["per_layer" if trace else "end_to_end"]


def select(result, declared, trace):
    """Keeps exactly the declared metrics. A per-layer metric of a float
    prefix layer the workload does not run reads 0; any other missing metric
    is a benchmark bug."""
    got = result["metrics"]
    out = {}
    for m in declared:
        name = m["name"]
        if name in got:
            if got[name]["unit"] != m["unit"]:
                fail("metric %s has unit %s, declared %s"
                     % (name, got[name]["unit"], m["unit"]))
            out[name] = got[name]
        elif trace and name.startswith("nn.") and ".layer." in name:
            out[name] = {"value": 0, "unit": m["unit"]}
        else:
            fail("the benchmark did not report metric " + name)
    result["metrics"] = out
    return result


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--cost-table", action="store_true")
    args = p.parse_args()

    build()
    if args.cost_table:
        sys.exit(subprocess.run([BINARY, "--cost-table", "--seed",
                                 str(args.seed), "--fixtures", FIXTURES],
                                cwd=ROOT).returncode)
    if not args.workload:
        fail("--workload is required")

    declared = declared_metrics(args.trace)
    trace_out = os.path.join(BUILD, "traces", "%s-seed%d.jsonl"
                             % (args.workload, args.seed))
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--fixtures", FIXTURES, "--trace-out", trace_out,
           "--commit", source_id()]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout.decode() if isinstance(e.stdout, bytes)
                         else (e.stdout or ""))
        fail("benchmark run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        fail("benchmark exited with status %d" % proc.returncode,
             proc.returncode)
    for line in lines[:-1]:
        print(line)
    result = select(json.loads(lines[-1]), declared, args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
