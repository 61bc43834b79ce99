#!/usr/bin/env python3
"""PaPar benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a source checkout. Builds perfbench/ (CMake, Release)
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload in its own process and relays its output; the last stdout line is
the JSON result. The result is validated against BENCHMARK.json: every
metric it names for the mode (end_to_end for --trace 0, per_layer for
--trace 1) must be present with the unit BENCHMARK.json gives it.

--smoke runs every workload at tiny scale, untraced and traced, and fails if
a run is incorrect or any metric named in BENCHMARK.json is missing or
unitless.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 170
SMOKE_SCALE = "0.02"
SMOKE_SECONDS = "0.5"


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_root():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return base if base.is_absolute() else ROOT / base


def build():
    """Configures (once) and builds papar_perfbench; returns the binary path."""
    if not (ROOT / "src").is_dir() or not (ROOT / "perfbench" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"{ROOT} is not a PaPar source checkout (no src/)")
    build_dir = build_root() / "perfbench"
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(build_dir), "-j4"], stdout=sys.stderr, check=True)
    return build_dir / "papar_perfbench"


def benchmark_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def validate(result, spec, trace):
    """Returns a list of problems with one run's result object."""
    problems = []
    for key in ("correct", "attempted", "failed", "metrics"):
        if key not in result:
            problems.append(f"result lacks `{key}`")
    if problems:
        return problems
    if result["correct"] is not True:
        problems.append("run reported incorrect partitions")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("`attempted` must be a whole number >= 1")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result["metrics"]
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            problems.append(f"metric `{m['name']}` is missing")
        elif not got.get("unit"):
            problems.append(f"metric `{m['name']}` has no unit")
        elif got["unit"] != m["unit"]:
            problems.append(f"metric `{m['name']}` has unit `{got['unit']}`, "
                            f"BENCHMARK.json says `{m['unit']}`")
        elif not isinstance(got.get("value"), (int, float)):
            problems.append(f"metric `{m['name']}` has no numeric value")
    extra = set(metrics) - {m["name"] for m in wanted}
    if extra:
        problems.append(f"metrics not in BENCHMARK.json: {sorted(extra)}")
    return problems


def run_workload(binary, workload, seed, seconds, trace, scale=None):
    """Runs one workload; returns (stdout text, parsed result or None)."""
    work_dir = build_root() / f"perfbench-work-{os.getpid()}"
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--work-dir", str(work_dir)]
    if scale is not None:
        cmd += ["--scale", scale]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        return "", None
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    out = proc.stdout
    if proc.returncode != 0:
        log(f"{workload}: papar_perfbench exited with code {proc.returncode}")
        return out, None
    lines = out.strip().splitlines()
    try:
        return out, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"{workload}: last output line is not a JSON result")
        return out, None


def smoke(binary, spec):
    failures = 0
    for w in spec["workloads"]:
        for trace in (False, True):
            out, result = run_workload(binary, w["name"], 1, SMOKE_SECONDS, trace, SMOKE_SCALE)
            problems = ["no result"] if result is None else validate(result, spec, trace)
            label = f"{w['name']} trace={int(trace)}"
            if problems:
                failures += 1
                sys.stdout.write(out)
                for p in problems:
                    print(f"FAIL {label}: {p}")
            else:
                print(f"ok   {label}: {len(result['metrics'])} metrics, "
                      f"{result['attempted']} runs")
    print(f"smoke: {failures} failing run(s)")
    return 1 if failures else 0


def main():
    # A terminated run must not leave papar_perfbench behind:
    # subprocess.run kills and reaps its child when SystemExit unwinds it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not args.smoke and not args.workload:
        ap.error("--workload is required (or --smoke)")

    try:
        spec = benchmark_spec()
        binary = build()
    except (OSError, ValueError, RuntimeError, subprocess.CalledProcessError) as e:
        log(f"cannot build the benchmark: {e}")
        return 2
    if args.smoke:
        return smoke(binary, spec)

    out, result = run_workload(binary, args.workload, args.seed, args.seconds,
                               bool(args.trace))
    if result is None:
        sys.stdout.write(out)
        return 1
    problems = validate(result, spec, bool(args.trace))
    # The result line stays last: problems go to stderr.
    for p in problems:
        log(p)
    sys.stdout.write(out)
    sys.stdout.flush()
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
