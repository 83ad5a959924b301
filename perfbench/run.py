"""qreduce benchmark runner.

    python3 perfbench/run.py --workload cli-n8 --seed 1 --seconds 30 --trace 0

Runs one workload against the qreduce sources in `src/` of the checkout
that holds this directory, checks every output against the oracle in
`workloads.py`, and prints as its last line one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the
metrics are the `end_to_end` metrics of BENCHMARK.json, measured untraced;
with `--trace 1` they are its `per_layer` metrics, from one untraced and one
traced pass.  Each measurement runs in a fresh worker interpreter
(`worker.py`); the benchmark pins no BLAS thread count and passes the
environment on as inherited.  Scratch files, the full record of each run
and the trace spans go to `.bench_work/` in the checkout.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Every run must end within this many seconds, build and set-up included.
RUN_BUDGET_S = 170.0
# `setup_s` is the median over this many fresh interpreters, half started
# before the workload and half after it, plus the worker that runs it.
SETUP_PROBES = {False: 6, True: 2}


class BenchError(Exception):
    pass


def _percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile: at least (100 - pct)% of samples are >= it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


class Runner:
    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ)
        inherited = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([inherited] if inherited else []))

    def worker(self, *args: str) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run budget exhausted")
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "worker.py"), *args],
                cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker {args[0]} exceeded the run budget") from exc
        if proc.returncode != 0:
            raise BenchError(f"worker {args[0]} exited {proc.returncode}:\n"
                             f"{proc.stderr.strip()}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def run(self, request: dict) -> dict:
        path = WORK / f"request-{request['tag']}.json"
        path.write_text(json.dumps(request))
        return self.worker("run", str(SRC), str(path))


def measure(args, spec: dict) -> tuple[dict, dict]:
    runner = Runner(time.monotonic() + RUN_BUDGET_S)
    WORK.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    settings = (workloads.TINY if args.tiny else workloads.FULL)[args.workload]
    manifest = None
    if args.workload == "cli-n8":
        manifest = workloads.write_cli_inputs(
            WORK / f"inputs-{tag}", args.seed, settings["n"],
            settings["per_kind"])
    request = {"workload": args.workload, "seed": args.seed,
               "settings": settings, "manifest": manifest,
               "seconds": args.seconds, "passes": 0, "traced": False,
               "tag": f"{tag}-plain"}

    if not args.trace:
        half = SETUP_PROBES[args.tiny] // 2
        probes = [runner.worker("probe", str(SRC))["setup_s"]
                  for _ in range(half)]
        record = runner.run(request)
        probes += [runner.worker("probe", str(SRC))["setup_s"]
                   for _ in range(half)]
        times = record["pass_s"]
        ops = record["op_s"]
        computed = {
            "setup_s": statistics.median(probes + [record["setup_s"]]),
            "wall_s": statistics.median(times),
            "op_p50_ms": 1000.0 * _percentile(ops, 50),
            "op_p90_ms": 1000.0 * _percentile(ops, 90),
            "ops_per_s": len(ops) / sum(times),
            "peak_rss_mb": record["peak_rss_mb"],
        }
        record["setup_probes_s"] = probes
        records = {"plain": record}
        wanted = spec["end_to_end"]
    else:
        plain = runner.run({**request, "passes": 1})
        traced = runner.run({
            **request, "passes": 1, "traced": True, "tag": f"{tag}-traced",
            "spans_path": str(WORK / f"spans-{tag}.npz"),
            "per_layer": [m["name"] for m in spec["per_layer"]]})
        computed = dict(traced["trace"]["per_layer"])
        computed["trace_overhead_ratio"] = (
            traced["pass_s"][0] / plain["pass_s"][0] - 1.0)
        records = {"plain": plain, "traced": traced}
        wanted = spec["per_layer"]

    attempted = sum(r["attempted"] for r in records.values())
    failed = sum(r["failed"] for r in records.values())
    computed["fail_ratio"] = failed / attempted if attempted else 1.0
    metrics = {}
    for metric in wanted:
        if metric["name"] not in computed:
            raise BenchError(f"no measurement for metric {metric['name']!r}")
        metrics[metric["name"]] = {"value": computed[metric["name"]],
                                   "unit": metric["unit"]}
    result = {"correct": failed == 0 and attempted > 0,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    full = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "settings": settings, "result": result, "records": records}
    return result, full


def _summary(full: dict) -> list[str]:
    """Human-readable lines printed before the result."""
    plain = full["records"]["plain"]
    lines = [f"workload {full['workload']} seed {full['seed']} "
             f"settings {json.dumps(full['settings'], sort_keys=True)}",
             f"passes {len(plain['pass_s'])}, op samples {len(plain['op_s'])}",
             f"fail_ratio {full['result']['failed']}/"
             f"{full['result']['attempted']}"]
    if "checks_total" in plain:
        lines.append(f"checks_total {plain['checks_total']}, stdout sha256 "
                     f"{plain['stdout_sha256']}")
        lines.append("exercised dims "
                     + json.dumps(plain["exercised_dims"], sort_keys=True))
    lines += [f"note: {note}" for record in full["records"].values()
              for note in record["notes"]]
    lines.append("environment " + json.dumps(plain["environment"],
                                             sort_keys=True))
    for name, metric in full["result"]["metrics"].items():
        lines.append(f"{name} = {metric['value']:.6g} {metric['unit']}")
    if "traced" in full["records"]:
        missing = full["records"]["traced"]["trace"]["missing"]
        if missing:
            lines.append("not traced (absent): " + ", ".join(missing))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny problem sizes, for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "qreduce" / "__init__.py").is_file():
        print(f"error: no qreduce sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        result, full = measure(args, spec)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(full, indent=1, sort_keys=True))
    for line in _summary(full):
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
