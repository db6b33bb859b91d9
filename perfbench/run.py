"""qdeph benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload trace-readme --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; qdeph is imported from ``src/`` of
that checkout (nothing is installed). The workloads are described in
``workloads.py`` and the output checks in ``checks.py``.

--trace 0 reports the end-to-end metrics:

- setup_s: median over several fresh interpreters, spread over the run, of
  the time to import numpy and qdeph and parse the workload's config (every
  CLI run pays it);
- op_p50_s: median wall seconds per operation;
- samples_per_s: median output samples (trajectory rows, comparison points,
  sweep rows) per second of operation time;
- peak_rss_mib: peak resident set of this process (one workload per process);
- ok_frac: share of operations that returned and passed their check
  (1 - fail_frac; a metric that is never 0 on a healthy program).

--trace 1 alternates untraced and traced operations and reports per-layer
metrics (see ``tracing.py``), the median over traced operations, plus
trace.overhead_frac, the traced median op time over the untraced one, less 1.

Every timing is taken at the host's reference speed: the benchmark times a
fixed pure-Python loop (the probe) just before and just after each operation,
and inside each set-up interpreter around its imports, and scales the wall
time by PROBE_REF_S over the mean of the two probe times (see ``rescale``).
The raw wall times and probe times are kept in the run record.

The last line of stdout is the JSON result; a human-readable summary goes to
stderr. A run record (versions, machine, every op's inputs, timing and check)
is written to ``.perfbench_out/`` in the checkout, with the spans of a traced
run beside it. BLAS is pinned to one thread, so that the only parallelism is
the sweep's two workers.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import inspect
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORK = ROOT / ".perfbench_work"

MIN_OPS = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 60
# The probe's time on the baseline machine (2-core Xeon VM) when its host is
# idle; there it reads 0.0075-0.009 s when fast and 0.011-0.013 s when slow.
PROBE_REF_S = 0.008
PROBE_LOOP = 100_000
PROBE_REPEATS = 3

# times import + config parsing in a fresh interpreter between two probes,
# which run there too (measure_setup prepends probe's source); prints the
# probe before, the set-up and the probe after, in seconds
_SETUP_CODE = """\
before = probe()
t0 = time.perf_counter()
import sys
sys.path.insert(0, sys.argv[1])
import numpy
import qdeph
from qdeph.cli import parse_config
with open(sys.argv[2]) as fh:
    parse_config(fh.read())
wall = time.perf_counter() - t0
print(repr(before), repr(wall), repr(probe()))
"""


class BenchError(RuntimeError):
    """The benchmark cannot run here (not a qdeph checkout, bad arguments)."""


def import_qdeph():
    """Import qdeph from this checkout's src/, never from anywhere else."""
    for var in BLAS_THREAD_VARS:  # before numpy loads its BLAS
        os.environ[var] = "1"
    if not (SRC / "qdeph" / "__init__.py").is_file():
        raise BenchError(f"no qdeph sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qdeph
    if Path(qdeph.__file__).resolve().parent != (SRC / "qdeph").resolve():
        raise BenchError(f"imported qdeph from {qdeph.__file__}, not {SRC}")
    return qdeph


def probe() -> float:
    """Seconds of a fixed pure-Python loop, the best of PROBE_REPEATS.

    The host's vCPUs switch between a fast and a ~1.45x slower state in
    phases of seconds to minutes, and every layer of qdeph slows with them.
    """
    best = float("inf")
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        acc = 0
        for i in range(PROBE_LOOP):
            acc += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best


def rescale(wall_s: float, before: float, after: float) -> float:
    """`wall_s` at the reference speed, from the probes around it."""
    return wall_s * PROBE_REF_S / (0.5 * (before + after))


def measure_setup(config: Path) -> dict:
    """Seconds a fresh interpreter takes to import qdeph and parse `config`.

    The probes run in that interpreter, which may be on the other vCPU.
    """
    code = (f"import time\nPROBE_LOOP = {PROBE_LOOP}\n"
            f"PROBE_REPEATS = {PROBE_REPEATS}\n"
            + inspect.getsource(probe) + _SETUP_CODE)
    proc = subprocess.run(
        [sys.executable, "-c", code, str(SRC), str(config)],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise BenchError(f"set-up interpreter failed:\n{proc.stderr}")
    before, wall, after = map(float, proc.stdout.split())
    return {"wall_s": wall, "probe_s": [before, after],
            "ref_s": rescale(wall, before, after)}


def timed_op(wl, index: int, tracer=None) -> dict:
    """Run and check one op; only the op itself is timed.

    An op that raises, or whose check raises or finds a problem, fails.
    """
    inp = wl.prepare(index)
    gc.collect()
    output, samples = None, 0
    before = probe()
    t0 = time.perf_counter()
    try:
        if tracer is None:
            output = wl.run()
        else:
            with tracer.install(), tracer.op(index):
                output = wl.run()
    except Exception:
        problems = ["op raised:\n" + traceback.format_exc(limit=3)]
    else:
        problems = None
    wall = time.perf_counter() - t0
    after = probe()
    if problems is None:
        try:
            samples = wl.samples(output)
            problems = wl.check(output)
        except Exception:
            problems = ["check raised:\n" + traceback.format_exc(limit=3)]
    return {"index": index, "traced": tracer is not None, "inputs": inp,
            "wall_s": wall, "probe_s": [before, after],
            "ref_s": rescale(wall, before, after), "samples": samples,
            "ok": not problems, "problems": problems}


def run_ops(wl, seconds: float, trace: bool):
    """Ops until they took `seconds` in all and enough of each kind ran.

    Traced runs alternate untraced and traced ops so that both see the same
    machine conditions. Untraced runs also time SETUP_REPEATS fresh
    interpreters, spread evenly over the measuring window between ops, so
    that their median sees the same phases of host load as the ops do.
    Returns (ops, tracer or None, set-up samples).
    """
    tracer, setup, due = None, [], []
    if trace:
        import tracing
        tracer = tracing.Tracer()
    else:
        wl.prepare(0)
        measure_setup(wl.config)  # untimed: fills the bytecode cache
        due = [seconds * (k + 0.5) / SETUP_REPEATS
               for k in range(SETUP_REPEATS)]
    kinds = (False, True) if trace else (False,)
    ops = []
    while True:
        traced = trace and len(ops) % 2 == 1
        ops.append(timed_op(wl, len(ops), tracer if traced else None))
        elapsed = sum(o["wall_s"] for o in ops)
        while due and due[0] <= elapsed:
            setup.append(measure_setup(wl.config))
            due.pop(0)
        fewest = min(sum(o["traced"] == k for o in ops) for k in kinds)
        if elapsed >= seconds and fewest >= MIN_OPS:
            setup += [measure_setup(wl.config) for _ in due]
            return ops, tracer, setup


def end_to_end(ops: list[dict], setup: list[dict]) -> dict:
    """The run's end-to-end metrics, timings at the reference speed.

    Op timings are medians over the ops that passed (over all ops when none
    did); ok_frac counts the others.
    """
    timed = [o for o in ops if o["ok"]] or ops
    return {
        "setup_s": (statistics.median(s["ref_s"] for s in setup), "s"),
        "op_p50_s": (statistics.median(o["ref_s"] for o in timed), "s"),
        "samples_per_s": (statistics.median(o["samples"] / o["ref_s"]
                                            for o in timed), "1/s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                         / 1024.0, "MiB"),
        "ok_frac": (sum(o["ok"] for o in ops) / len(ops), "frac"),
    }


def per_layer(ops: list[dict], tracer) -> dict:
    """Median over traced ops; each traced op keeps its own in "layers"."""
    import tracing
    per_op = []
    for o in ops:
        if o["traced"]:
            spans = [s for s in tracer.spans if s.op == o["index"]]
            o["layers"] = tracing.op_layer_metrics(spans)
            per_op.append(o["layers"])
    metrics = {k: (statistics.median(m[k] for m in per_op), tracing.unit(k))
               for k in per_op[0]}
    traced = statistics.median(o["ref_s"] for o in ops if o["traced"])
    plain = statistics.median(o["ref_s"] for o in ops if not o["traced"])
    metrics["trace.overhead_frac"] = (traced / plain - 1.0, "frac")
    return metrics


def run_record(args, ops: list[dict], setup: list[dict]) -> dict:
    import numpy
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_sha": _git_sha(), "src_sha256": _src_digest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "probe_ref_s": PROBE_REF_S, "setup_samples": setup, "ops": ops,
        "wall_p50_s": statistics.median(o["wall_s"] for o in ops),
        "ref_p50_s": statistics.median(o["ref_s"] for o in ops),
        "fail_frac": sum(not o["ok"] for o in ops) / len(ops),
    }


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "qdeph").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import_qdeph()
        import workloads
        if args.workload not in workloads.WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; one of "
                             f"{sorted(workloads.WORKLOADS)}")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    workdir = WORK / f"{tag}_{os.getpid()}"
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        ops, tracer, setup = run_ops(wl, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # fails while another run still has its directory

    if args.trace:
        metrics = per_layer(ops, tracer)
    else:
        metrics = end_to_end(ops, setup)
    record = run_record(args, ops, setup)
    record["metrics"] = {k: v for k, (v, _) in metrics.items()}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        (OUT / f"{tag}_spans.json").write_text(json.dumps(
            [s.to_json() for s in tracer.spans]) + "\n")

    failed = sum(not o["ok"] for o in ops)
    for o in ops:
        for p in o["problems"]:
            print(f"op {o['index']}: {p}", file=sys.stderr)
    print(f"{len(ops)} ops, {failed} failed, median op "
          f"{record['wall_p50_s']:.6g} s wall, {record['ref_p50_s']:.6g} s "
          f"at the reference speed", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0, "attempted": len(ops), "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
