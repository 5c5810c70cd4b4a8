#!/usr/bin/env python3
"""Builds and runs the H3DFact benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload serve-closed --seed 1 --seconds 20 --trace 0

prints a readable report and, as its last line, one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports
the end-to-end metrics of BENCHMARK.json from one untraced run; `--trace 1`
makes an untraced and a traced run and reports the per-layer metrics of
the traced one plus the tracing overhead between the two. A failed
correctness check makes the exit code non-zero.

    python3 perfbench/run.py --workload all --runs 10 --seed 1 --seconds 20

is the k-run mode: one run per seed, then each metric's median, IQR,
min and max against its bound (`all` is the workloads BENCHMARK.json
lists).
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["serve-closed", "serve-open", "batch-grid", "analog-h3d"]
RUN_TIMEOUT_S = 170

# Bounds for the end-to-end metrics BENCHMARK.json does not list: the
# tail latencies, which host scheduling noise on a shared 2-vCPU host
# moved by more than the largest allowed bound, and the metrics only some
# workloads have (every listed metric must come from every workload).
# The k-run mode judges them like the listed ones.
EXTRA_BOUNDS = {
    "req_p95_ms": 0.25,
    "req_p99_ms": 0.25,
    "slo_rps": 0.25,
    # Per solve, so one rare budget-exhausting solve more or less moves
    # them by a few percent between seeds.
    "sim_energy_nj_per_solve": 0.1,
    "sim_latency_us_per_solve": 0.1,
}

# The metric each workload's tracing overhead is judged on, and whether
# larger is better for it.
OVERHEAD_BASIS = {
    "serve-closed": ("req_p50_ms", False),
    "serve-open": ("req_p50_ms", False),
    "batch-grid": ("solves_per_s", True),
    "analog-h3d": ("solves_per_s", True),
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def target_cpu():
    """The `target-cpu` the build uses: RUSTFLAGS, else .cargo/config.toml."""
    flags = os.environ.get("RUSTFLAGS", "")
    config = os.path.join(ROOT, ".cargo", "config.toml")
    if "target-cpu" not in flags and os.path.exists(config):
        with open(config) as f:
            flags = f.read()
    m = re.search(r"target-cpu=([\w-]+)", flags)
    return m.group(1) if m else "default"


def build():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    return os.path.join(target, "release", "perfbench")


def run_once(binary, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} run timed out")
    lines = done.stdout.strip().splitlines()
    if not lines:
        sys.stderr.write(done.stderr)
        fail(f"{workload} run printed nothing (exit code {done.returncode})")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(done.stderr)
        fail(f"{workload} run printed no result")
    if done.returncode not in (0, 1):
        sys.stderr.write(done.stderr)
        fail(f"{workload} run crashed (exit code {done.returncode})")
    return result


def traced_pair(binary, workload, seed, seconds):
    """Untraced then traced run; the traced result gains the overhead and
    the traced-equals-untraced check."""
    plain = run_once(binary, workload, seed, seconds, False)
    traced = run_once(binary, workload, seed, seconds, True)
    name, higher = OVERHEAD_BASIS[workload]
    base = plain["metrics"][name]["value"]
    with_trace = traced["metrics"][name]["value"]
    worse = (base - with_trace) if higher else (with_trace - base)
    traced["metrics"]["trace.overhead_pct"] = {
        "value": 100.0 * worse / base, "unit": "%"}
    # Each solve cell's calls are deterministic in order, so the two runs
    # must agree on every call both completed. (Serve runs check each of
    # their responses against a replay instead.)
    same, compared = len(plain["digests"]) == len(traced["digests"]), 0
    for a, b in zip(plain["digests"], traced["digests"]):
        n = min(len(a), len(b))
        same &= n == 0 or a[n - 1] == b[n - 1]
        compared += n
    if plain["digests"]:
        traced["checks"].append({
            "name": "traced_equals_untraced", "ok": same and compared > 0,
            "detail": f"{compared} calls' outcome digests compared"})
        same = same and compared > 0
    traced["checks"].extend(plain["checks"])
    traced["attempted"] += plain["attempted"]
    traced["failed"] += plain["failed"]
    traced["correct"] = traced["correct"] and plain["correct"] and same
    return traced


def print_report(result, workload, cpu):
    info = result.get("info", {})
    print(f"== {workload}  seed {info.get('seed')}  {info.get('seconds')} s  "
          f"trace {info.get('trace')}")
    print(f"   nproc {info.get('nproc')}  target-cpu {cpu}  "
          f"dispatch {info.get('dispatch_arm')}  ({info.get('compiled_features')})")
    for name, m in result["metrics"].items():
        print(f"   {name:34s} {m['value']:>14.6g} {m['unit']}")
    for key, value in info.items():
        if "." in key or key in ("cells", "calls", "batch", "threads"):
            print(f"   [{key}] {value}")
    for c in result["checks"]:
        print(f"   check {'ok  ' if c['ok'] else 'FAIL'} {c['name']}: {c['detail']}")
    print(f"   correct {result['correct']}  attempted {result['attempted']}  "
          f"failed {result['failed']}")


def contract_line(result, names):
    metrics = {}
    for name in names:
        if name not in result["metrics"]:
            fail(f"metric {name} missing from the run")
        metrics[name] = result["metrics"][name]
    return json.dumps({"correct": bool(result["correct"]),
                       "attempted": int(result["attempted"]),
                       "failed": int(result["failed"]),
                       "metrics": metrics})


def k_runs(binary, spec, workloads, seed0, runs, seconds, trace, cpu):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    bounds.update(EXTRA_BOUNDS)
    all_ok = True
    for workload in workloads:
        values = {}
        for k in range(runs):
            seed = seed0 + k
            r = (traced_pair(binary, workload, seed, seconds) if trace
                 else run_once(binary, workload, seed, seconds, False))
            all_ok &= bool(r["correct"])
            for c in r["checks"]:
                if not c["ok"]:
                    print(f"   seed {seed}: check FAIL {c['name']}: {c['detail']}")
            for name, m in r["metrics"].items():
                values.setdefault(name, (m["unit"], []))[1].append(m["value"])
            print(f"   {workload} seed {seed}: correct {r['correct']}", flush=True)
        print(f"== {workload}: {runs} runs, seeds {seed0}..{seed0 + runs - 1}, "
              f"target-cpu {cpu}")
        print(f"   {'metric':34s} {'median':>12s} {'IQR/med':>8s} {'min':>12s} "
              f"{'max':>12s} {'bound':>6s}")
        for name, (unit, vs) in values.items():
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
            spread = (q[2] - q[0]) / abs(med) if med else 0.0
            bound = bounds.get(name)
            verdict = ""
            if bound is not None and name != "setup_s":
                verdict = ("steady" if spread <= bound / 3 else
                           "within" if spread <= bound else "NOISY")
            print(f"   {name:34s} {med:>12.6g} {spread:>8.4f} {min(vs):>12.6g} "
                  f"{max(vs):>12.6g} {'' if bound is None else bound:>6} "
                  f"{unit} {verdict}")
    return all_ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--runs", type=int, default=0,
                    help="k-run mode: this many seeds, then a spread summary")
    args = ap.parse_args()

    spec = load_spec()
    binary = build()
    cpu = target_cpu()
    workloads = ([w["name"] for w in spec["workloads"]] if args.workload == "all"
                 else [args.workload])
    if args.runs > 0:
        ok = k_runs(binary, spec, workloads, args.seed, args.runs,
                    args.seconds, args.trace == 1, cpu)
        sys.exit(0 if ok else 1)
    if len(workloads) != 1:
        fail("--workload all needs --runs")
    workload = workloads[0]
    if args.trace:
        result = traced_pair(binary, workload, args.seed, args.seconds)
        names = [m["name"] for m in spec["per_layer"]]
    else:
        result = run_once(binary, workload, args.seed, args.seconds, False)
        names = [m["name"] for m in spec["end_to_end"]]
    print_report(result, workload, cpu)
    print(contract_line(result, names), flush=True)
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
