"""The pferrer benchmark: one command, three workloads.

    python3 perfbench/run.py --workload report-ladder --seed 1 --seconds 36 --trace 0

Run it from the repository root.  The load model, the workloads and the
metrics are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_PROBES_PER_PASS = 5
PASS_TIMEOUT_S = 150


def child_env(root: str) -> dict:
    """Interpreter defaults for the program: GC on, no -O, no FERRER_LIMITS,
    and bytecode cached as an installed CLI would have it."""
    env = dict(os.environ)
    for name in ("FERRER_LIMITS", "PYTHONOPTIMIZE", "PYTHONDONTWRITEBYTECODE", "PYTHONPATH"):
        env.pop(name, None)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def measure_setup(env: dict, root: str, probes: int) -> list[float]:
    command = [sys.executable, "-c", "import pferrer.cli"]
    times = []
    for _ in range(probes):
        start = time.perf_counter()
        subprocess.run(command, env=env, cwd=root, check=True)
        times.append(time.perf_counter() - start)
    return times


def run_pass(ops: list, trace: bool, env: dict, root: str) -> dict:
    request = json.dumps({"ops": ops, "trace": trace})
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py")],
        input=request,
        capture_output=True,
        text=True,
        env=env,
        cwd=root,
        timeout=PASS_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"pass failed with exit {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(done.stdout)


def count_failures(result: dict, ops: list, records: dict) -> int:
    failed = 0
    for op, code, digest in zip(ops, result["exit"], result["sha256"]):
        if records.get(workloads.op_key(op)) != [code, digest]:
            failed += 1
    return failed


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end_metrics(passes: list[dict], setup: list[float]) -> dict:
    """Medians over the passes of a run.

    Each op's latency is its median over the passes, which drops a spell of
    machine load that slowed one pass; wall_s sums those medians and the
    percentiles are taken over them.
    """
    op_s = [statistics.median(column) for column in zip(*(p["op_s"] for p in passes))]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": sum(op_s),
        "op_p50_ms": 1000 * nearest_rank(op_s, 0.5),
        "op_p90_ms": 1000 * nearest_rank(op_s, 0.9),
        "peak_rss_mb": statistics.median(p["peak_rss_kb"] for p in passes) / 1024,
    }


END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_frac") or name.endswith("ratio"):
        return "ratio"
    if name.endswith("calls_per_op"):
        return "calls/op"
    return "count"


def machine_notes() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def git_sha(root: str) -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    golden_path = os.path.join(HERE, "golden.json")
    if not os.path.isfile(os.path.join(root, "src", "pferrer", "cli.py")):
        print("perfbench: no src/pferrer here; run from the repository root", file=sys.stderr)
        return 2
    with open(golden_path, encoding="utf-8") as handle:
        golden = json.load(handle)
    records = golden["records"][args.workload]
    ops = workloads.make_ops(args.workload, args.seed, golden)
    env = child_env(root)

    measure_setup(env, root, 1)  # writes the .pyc files, as an install would
    setup, passes, traced = [], [], []
    attempted = failed = 0
    started = time.perf_counter()
    while True:
        # Setup probes run next to each pass, so both sample the same spells
        # of machine load.
        setup += measure_setup(env, root, SETUP_PROBES_PER_PASS)
        # With tracing, untraced and traced passes alternate which goes first.
        order = [False, True] if args.trace else [False]
        if len(passes) % 2:
            order.reverse()
        for trace in order:
            result = run_pass(ops, trace, env, root)
            if not result["module"].startswith(os.path.join(root, "src")):
                print(f"perfbench: imported {result['module']}, not this tree", file=sys.stderr)
                return 2
            (traced if trace else passes).append(result)
            attempted += len(ops)
            failed += count_failures(result, ops, records)
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(passes) > args.seconds:
            break  # one more round would run past --seconds

    end_to_end = end_to_end_metrics(passes, setup)
    if args.trace:
        names = traced[0]["layers"].keys()
        metrics = {
            name: statistics.median(result["layers"][name] for result in traced)
            for name in names
        }
        traced_wall = end_to_end_metrics(traced, setup)["wall_s"]
        metrics["trace.overhead_frac"] = traced_wall / end_to_end["wall_s"] - 1
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics = end_to_end
        units = END_TO_END_UNITS

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(root),
        "machine": machine_notes(),
        "ops_per_pass": len(ops),
        "passes": len(passes),
        "traced_passes": len(traced),
        "attempted": attempted,
        "failed": failed,
        "setup_probes_s": setup,
        "pass_wall_s": [sum(result["op_s"]) for result in passes],
        "traced_pass_wall_s": [sum(result["op_s"]) for result in traced],
        "op_s": [result["op_s"] for result in passes],
        "metrics": metrics,
    }
    results_dir = os.path.join(HERE, "results")
    os.makedirs(results_dir, exist_ok=True)
    out_path = os.path.join(
        results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    print(
        f"{args.workload} seed {args.seed}: {len(ops)} ops per pass, {len(passes)} passes"
        f" + {len(traced)} traced, {failed}/{attempted} ops failed"
    )
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(f"  fail_frac = {failed / attempted:.6g} ratio (failed / attempted)")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
