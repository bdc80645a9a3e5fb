"""boxdfm benchmark: run one workload once and print its metrics.

    python3 perfbench/run.py --workload ex51-r4 --seed 1 --seconds 16 --trace 0

The untraced run (--trace 0) reports the end-to-end metrics listed in
BENCHMARK.json, the traced run (--trace 1) the per-layer ones. Work happens
in fresh worker processes (perfbench/worker.py) that import boxdfm from this
checkout's src/, with BLAS/OpenMP threads capped at nproc. Set-up is repeated
in SETUP_REPEATS processes and reported as their median. Human-readable
lines come first; the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. A failed correctness gate
prints correct=false without metrics and exits 1. This script uses only the
standard library, so its own memory does not leak into peak_rss_mb.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUDGET_S = 170.0  # every run must end within 180 s
SETUP_REPEATS = 7  # set-up processes of an untraced run, the measuring one included
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    pass


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_worker(mode: str, args, work: Path, env: dict, deadline: float) -> dict:
    """Start one worker and wait for its JSON line; setup_s is the time from
    spawning it until it reported the workload set up."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--spec", str(args.spec),
           "--work", str(work)]
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker overran the {BUDGET_S:g} s budget") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} worker printed no result")
    res = json.loads(lines[-1])
    res["setup_s"] = res["ready_at"] - t_spawn
    return res


def p90(xs: list) -> float:
    if len(xs) == 1:
        return xs[0]
    return statistics.quantiles(xs, n=10, method="inclusive")[-1]


def end_to_end(main: dict, setups: list, solve_in_setup: bool):
    """(metrics, sample notes) of an untraced run."""
    run_s = [s["setup_run_s"] for s in setups] if solve_in_setup else main["run_s"]
    lat = main["slice_s"]
    pts, defect = main["probe"]["points"], sum(main["probe"]["errors"].values())
    metrics = {
        "run_s": statistics.median(run_s),
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mb": main["peak_rss_mb"],
        "located_share": (pts - defect) / pts,
        "slice_ms_p50": 1e3 * statistics.median(lat),
        "slice_ms_p90": 1e3 * p90(lat),
        "points_per_s": main["slice_points"] / main["slice_total_s"],
    }
    where = "during set-up" if solve_in_setup else "timed"
    notes = {
        "run_s": f"median of {len(run_s)} run_scenario calls ({where})",
        "setup_s": f"median of {len(setups)} fresh processes",
        "peak_rss_mb": "ru_maxrss of the measuring worker",
        "located_share": f"{pts - defect} of {pts} probe points evaluated",
        "slice_ms_p50": f"median of {len(lat)} successful slice requests",
        "slice_ms_p90": f"p90 of {len(lat)} successful slice requests",
        "points_per_s": f"{main['slice_points']} points in "
                        f"{main['slice_total_s']:.3f} s of requests",
    }
    return metrics, notes


def print_spans(res: dict) -> None:
    print(f"  untraced run_scenario {res['untraced_s']:.4f} s, "
          f"span sum {res['span_sum_s']:.4f} s")
    depth = {}
    for i, s in enumerate(res["spans"]):
        if s["req"] != 0:
            continue
        depth[i] = 0 if s["parent"] is None else depth[s["parent"]] + 1
        name = "  " * depth[i] + s["name"]
        print(f"    {name:<36} {s['end'] - s['start']:10.4f} s")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--spec", type=Path, default=HERE / "workloads.json",
                    help="workload definitions and recorded gate values")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "boxdfm" / "__init__.py").is_file():
        print(f"error: no boxdfm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    args.spec = args.spec.resolve()
    spec = json.loads(args.spec.read_text())
    if args.workload not in spec["workloads"]:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(spec['workloads'])}", file=sys.stderr)
        return 2
    wl = spec["workloads"][args.workload]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({v: str(nproc) for v in THREAD_VARS})
    work = ROOT / ".bench_build" / "perfbench" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    deadline = time.monotonic() + BUDGET_S
    # set-up is an end-to-end metric only, so the traced run skips repeats;
    # the untraced run sets up before and after measuring, so that set-up
    # samples span the run instead of one stretch of the host's speed
    extra = 0 if args.trace else SETUP_REPEATS - 1
    try:
        setups = [run_worker("setup", args, work, env, deadline)
                  for _ in range(extra // 2)]
        res = run_worker("trace" if args.trace else "measure", args, work,
                         env, deadline)
        setups += [res] + [run_worker("setup", args, work, env, deadline)
                           for _ in range(extra - extra // 2)]
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    info = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "nproc": nproc,
            "cpu": cpu_model(), "platform": platform.platform(),
            "thread_caps": {v: env[v] for v in THREAD_VARS}, **res["versions"]}
    print("env " + json.dumps(info, sort_keys=True))
    gates = [g for s in setups for g in s["gates"]]
    if not args.trace and not res["slice_s"]:
        gates.append("no slice request succeeded")
    for key, count in sorted(res.get("errors", {}).items()):
        print(f"  failed x{count}: {key}")
    if "screen" in res:
        sc = res["screen"]
        print(f"  screened segments: kept {sc['kept']} of {sc['tried']}")
        for key, count in sorted(sc["errors"].items()):
            print(f"    screened out x{count}: {key}")
    if "probe" in res:
        print(f"  probe points: {res['probe']['points']}")
        for key, count in sorted(res["probe"]["errors"].items()):
            print(f"    not evaluated x{count}: {key}")
    if gates:
        for g in gates:
            print(f"gate failed: {g}")
        print(json.dumps({"correct": False, "attempted": res["attempted"],
                          "failed": res["failed"], "metrics": {}}))
        return 1

    if args.trace:
        values = res["metrics"]
        notes = {}
        print_spans(res)
    else:
        values, notes = end_to_end(res, setups, wl["solve_in_setup"])
        print(f"  failed_share {res['failed'] / res['attempted']!r} "
              f"({res['failed']} of {res['attempted']} operations)")
    if set(values) != set(units):
        print(f"error: metrics {sorted(set(values) ^ set(units))} disagree "
              "with BENCHMARK.json", file=sys.stderr)
        return 1
    metrics = {}
    for name, unit in units.items():
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"  {name:<28} {values[name]:>14.6g} {unit:<6} {notes.get(name, '')}")
    print(json.dumps({"correct": True, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
