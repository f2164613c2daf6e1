#!/usr/bin/env python3
"""Build and run the dfr benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Run it from the root of a checkout of the repository.  It builds
perfbench/bench.exe from source with dune (into $CARGO_TARGET_DIR when that
is set, else .bench_build), runs one workload pinned to one core and
relays the executable's output.  The last line of standard output is one
JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding every end-to-end metric of BENCHMARK.json with --trace 0 and every
per-layer metric with --trace 1.  --out FILE appends the run's full record
(environment and result) as one JSON line, for perfbench/compare.py.
The traced run also writes its spans, in Chrome trace_event format, next to
the build.  See perfbench/NOTES.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def run(cmd, timeout, **kw):
    """Run cmd in its own process group; on timeout kill the whole group
    and wait for it, so nothing outlives this script."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("%s timed out after %d s" % (cmd[0], timeout))
    return proc.returncode, out


def revision():
    """The git revision when the checkout is a repository, plus a digest of
    the sources the benchmark builds, which identifies the code either
    way."""
    rev = "no-git"
    if os.path.isdir(".git"):
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "--short=12", "HEAD"],
                capture_output=True, text=True, check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    h = hashlib.sha256()
    for top in ("dune-project", "lib", "perfbench"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            if p.endswith((".ml", ".mli", "dune", "dune-project", ".c")):
                h.update(p.encode())
                with open(p, "rb") as f:
                    h.update(f.read())
    return "%s src-sha256:%s" % (rev, h.hexdigest()[:16])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out")
    args = ap.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)
    for need in ("dune-project", "lib", "perfbench/dune"):
        if not os.path.exists(need):
            fail("%s is missing: run from the root of a full checkout" % need)

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if shutil.which("dune"):
        dune = ["dune"]
    elif shutil.which("opam"):
        dune = ["opam", "exec", "--", "dune"]
    else:
        fail("dune is not on PATH")
    code, _ = run(
        dune + ["build", "--root", ".", "--build-dir", build_dir,
                "./perfbench/bench.exe"],
        BUILD_TIMEOUT_S, stdout=sys.stderr)
    if code != 0:
        fail("build failed (dune exit %d)" % code)

    # The run is pinned to one core: the serve workload's two domains then
    # hand requests and garbage collections to each other on that core,
    # where on two cores every hand-over woke the other core and the passes
    # of one seed differed by up to 30 % from run to run.  The build above
    # stays unpinned.
    cpus = os.sched_getaffinity(0)
    cpu = min(cpus)
    os.sched_setaffinity(0, {cpu})

    exe = os.path.join(build_dir, "default", "perfbench", "bench.exe")
    out_dir = os.path.join(build_dir, "perfbench")
    os.makedirs(out_dir, exist_ok=True)
    trace_file = os.path.join(
        out_dir, "trace-%s-seed%d.json" % (args.workload, args.seed))
    code, out = run(
        [exe, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--rev", revision(), "--trace-file", trace_file],
        RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    lines = out.splitlines()
    if code != 0 or not lines:
        sys.stderr.write(out)
        fail("bench.exe exited with %d" % code)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(out)
        fail("bench.exe printed no result line")

    # the executable and BENCHMARK.json must name the same metrics
    declared = spec["per_layer" if args.trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if want != got:
        sys.stderr.write(out)
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(set(want.items()) - set(got.items())),
            sorted(set(got.items()) - set(want.items()))))

    env = next((json.loads(l[4:]) for l in lines if l.startswith("env ")), {})
    env["pinned_cpu"] = cpu
    env["cpus_before_pinning"] = len(cpus)
    print("pinned to cpu %d of %d" % (cpu, len(cpus)))
    for line in lines[:-1]:
        print(line)
    if args.out:
        with open(args.out, "a") as f:
            f.write(json.dumps({"env": env, "result": result}) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
