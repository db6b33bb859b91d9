"""Repeat the benchmark over seeds and summarise its run-to-run spread.

    python3 perfbench/prove.py --out perfbench/baseline/seed.json

For each workload in BENCHMARK.json, runs ``run.py`` once for each of SEEDS
seeds with tracing off, then twice with tracing on (seed 1). For every
end-to-end metric it reports the median, the quartiles and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound. The traced runs give the per-layer baseline; the counts of
their first MIN_OPS traced ops must repeat op by op.
Runs are sequential, so they never compete with each other for the CPU.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import MIN_OPS

ROOT = Path(__file__).resolve().parent.parent
SEEDS = 10
MACHINE_KEYS = ("git_sha", "src_sha256", "python", "numpy", "nproc",
                "cpu_model", "blas_threads")


def bench(spec: dict, workload: str, seed: int, seconds: int,
          trace: int) -> dict:
    proc = subprocess.run(
        spec["command"] + ["--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited "
                           f"{proc.returncode}:\n{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect output:\n"
                           f"{proc.stderr[-3000:]}")
    return result


def op_counts(workload: str, metrics: dict) -> list[dict]:
    """Count metrics of the first MIN_OPS traced ops of the last traced run.

    Each op draws its own inputs, and how many ops a run makes depends on
    their speed, so counts are compared op by op, not as run medians.
    """
    names = [k for k, v in metrics.items() if v["unit"] == "count"]
    record = json.loads((ROOT / ".perfbench_out" /
                         f"{workload}_seed1_trace1.json").read_text())
    ops = [o for o in record["ops"] if o["traced"]][:MIN_OPS]
    return [{k: o["layers"][k] for k in names} for o in ops]


def summarise(values: list[float], bound: float) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else 0.0
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": spread, "bound": bound}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--no-trace", action="store_true")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"run_seconds": seconds, "workloads": {}}
    for name in names:
        runs = [bench(spec, name, seed, seconds, 0)
                for seed in range(1, SEEDS + 1)]
        entry = {"end_to_end": {
            k: summarise([r["metrics"][k]["value"] for r in runs], bounds[k])
            for k in bounds}}
        for k, s in entry["end_to_end"].items():
            flag = ("" if s["spread"] <= s["bound"] / 3
                    else " ABOVE BOUND/3" if s["spread"] <= s["bound"]
                    else " ABOVE BOUND")
            print(f"{name:18s} {k:15s} median {s['median']:12.6g} "
                  f"spread {s['spread']:.3f} (bound {s['bound']}){flag}",
                  file=sys.stderr, flush=True)
        if not args.no_trace:
            traced, counts = [], []
            for _ in range(2):
                traced.append(bench(spec, name, 1, seconds, 1)["metrics"])
                counts.append(op_counts(name, traced[-1]))
            entry["per_layer"] = {k: v["value"] for k, v in traced[0].items()}
            entry["counts_repeat"] = counts[0] == counts[1]
            print(f"{name:18s} counts repeat: {entry['counts_repeat']}",
                  file=sys.stderr, flush=True)
        summary["workloads"][name] = entry
        record = json.loads((ROOT / ".perfbench_out" /
                             f"{name}_seed1_trace0.json")
                            .read_text())
        summary["machine"] = {k: record[k] for k in MACHINE_KEYS}
    text = json.dumps(summary, indent=1) + "\n"
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(text)
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
