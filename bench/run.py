"""targetwalk benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload mc_staged --seed 1 --seconds 25 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory.  The workload runs in a fresh ``worker.py`` process, and set-up
is timed in further fresh processes, so imports, set-up and peak memory
belong to this workload alone.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before it
is the full run record (machine, versions, commit, load, per-task times and
any absent per-layer metric).  ``--workload all`` runs every workload in turn
and prints a table.  Exits 2, printing no result, if the package or a worker
fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402  (needs HERE on sys.path)

SETUP_PROBES = 4          # set-up samples besides the one from the worker
PROBE_TIMEOUT_S = 20
WORKER_SLACK_S = 60       # set-up, a last pass that overruns, the checks


class BenchError(RuntimeError):
    pass


def _worker(args: list[str], timeout: float) -> tuple[dict, float]:
    """Run worker.py in a fresh interpreter: (its JSON line, spawn time)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *args],
                              capture_output=True, text=True, timeout=timeout,
                              env=env, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} timed out after {timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), spawned


def _loadavg() -> str:
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().strip()
    except OSError:
        return "unavailable"


def _commit() -> str | None:
    """HEAD of the checkout, or None where it is not a git work tree."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest() -> str:
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "targetwalk")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def _metric_specs(key: str) -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)[key]


def run_workload(name: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """(run record, driver result) for one workload."""
    if not os.path.isfile(os.path.join(ROOT, "src", "targetwalk", "__init__.py")):
        raise BenchError(f"no package source under {os.path.join(ROOT, 'src')}")
    common = ["--workload", name, "--seed", str(seed)]
    load_start = _loadavg()
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            probe, spawned = _worker(common + ["--setup-only"], PROBE_TIMEOUT_S)
            setups.append(probe["ready"] - spawned)
    out, spawned = _worker(common + ["--seconds", str(seconds), "--trace", str(trace)],
                           seconds + WORKER_SLACK_S)
    setups.append(out["ready"] - spawned)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "threads": out["threads"], "nproc": os.cpu_count(),
        "versions": out["versions"], "commit": _commit(),
        "source_sha256": _source_digest(),
        "loadavg_start": load_start, "loadavg_end": _loadavg(),
        "setup_s_samples": setups, "pass_walls_s": out["walls"],
        "task_seconds": out["task_seconds"],
        "attempted": out["attempted"], "failed": out["failed"],
        "error_rate": out["failed"] / out["attempted"],
        "failures": out["failures"],
        "peak_rss_mb": out["peak_rss_kb"] * 1024 / 1e6,
    }
    if trace:
        record.update(layers=out["layers"], absent=out["absent"],
                      missing_targets=out["missing"], spans_file=out["spans_file"])
        values = out["layers"]
        specs = _metric_specs("per_layer")
    else:
        values = {"setup_s": statistics.median(setups),
                  "wall_s": out["wall_s"],
                  "peak_rss_mb": record["peak_rss_mb"]}
        specs = _metric_specs("end_to_end")
    result = {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
                    for s in specs},
    }
    return record, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="targetwalk benchmark")
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            record, result = run_workload(name, args.seed, args.seconds, args.trace)
            results[name] = result
            print(json.dumps(record, sort_keys=True), flush=True)
            if args.workload == "all" and not args.trace:
                metrics = {k: f"{v['value']:.4g} {v['unit']}"
                           for k, v in result["metrics"].items()}
                print(f"{name}: " + ", ".join(f"{k} {v}" for k, v in metrics.items())
                      + f", error_rate {record['error_rate']:.4g} ratio", flush=True)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
