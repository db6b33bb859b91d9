"""The benchmark's workloads: inputs drawn from a seed, one operation, checks.

Each workload drives a public entry point of qdeph the way a user would and
stresses a different layer:

- trace-readme: ``qdeph trace`` on the README's hot config (N = 2000) with
  the default outputs. Grid transforms in the breakdown dominate; the
  kernel table, the Volterra stepper and the CSV writers run too.
- compare-subohmic: ``cli.build_comparison`` at s = 0.5 on the cold fig2
  state. The nested scalar quadrature behind F(t) dominates; no solver runs.
- sweep-ohmic: ``qdeph sweep --axis lambda`` over 8 values with two worker
  threads. Many mid-size grid transforms; the only thread-parallel path.

Each operation draws beta_omega0, sigma3_mean and lambda (and the sweep
values) from narrow ranges around the reference values, seeded by the
workload, the run's seed and the operation's index; sizes never change. No
two operations of a run repeat a call, so a cache keyed on the inputs would
not make a run faster than a user's separate commands, and the same seed
gives the same sequence of inputs, so per-operation counts repeat index by
index.
"""

from __future__ import annotations

import contextlib
import io
import random
from pathlib import Path

import checks

N_README = 2000
T_MAX_TRACE = 10.0
COMPARE_S = 0.5
COMPARE_T_MAX = 0.5
COMPARE_POINTS = 2
SWEEP_VALUES = 8
SWEEP_JOBS = 2
SWEEP_T_MAX = 10.0
SWEEP_POINTS = 200  # build_comparison's default grid, used by every sweep row


def _jitter(rng: random.Random, x: float, frac: float) -> float:
    return x * (1.0 + frac * (2.0 * rng.random() - 1.0))


def draw_inputs(workload: str, seed: int, op: int) -> dict:
    """Physical inputs of one operation; the same arguments give the same."""
    rng = random.Random(f"{workload}/{seed}/{op}")
    if workload == "compare-subohmic":
        inp = {"beta_omega0": _jitter(rng, 5.0, 0.1),
               "sigma3_mean": _jitter(rng, 0.99, 0.004),
               "lambda": _jitter(rng, 1.0 / 3.0, 0.1),
               "s": COMPARE_S, "t_max": COMPARE_T_MAX, "n_steps": 2}
    else:
        inp = {"beta_omega0": _jitter(rng, 0.1, 0.1),
               "sigma3_mean": _jitter(rng, 0.2, 0.1),
               "lambda": _jitter(rng, 1.0 / 3.0, 0.1),
               "s": 1.0, "t_max": T_MAX_TRACE, "n_steps": N_README}
    if workload == "sweep-ohmic":
        inp["t_max"] = SWEEP_T_MAX
        inp["sweep_values"] = [_jitter(rng, 0.05 * (k + 1), 0.05)
                               for k in range(SWEEP_VALUES)]
    return inp


def config_text(inp: dict) -> str:
    """The scenario file a user would write for these inputs."""
    return "".join(f"{k} = {v!r}\n" for k, v in (
        ("omega0_over_cutoff", 1.0),
        ("beta_omega0", inp["beta_omega0"]),
        ("sigma3_mean", inp["sigma3_mean"]),
        ("lambda", inp["lambda"]),
        ("s", inp["s"]),
        ("t_max_cutoff_units", inp["t_max"]),
        ("n_steps", inp["n_steps"])))


def _main(argv: list[str]) -> None:
    """qdeph's CLI entry point in-process; its stdout is not ours."""
    from qdeph import cli
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"qdeph {argv[0]} exited with {code}")


class Workload:
    """One workload of one run: per-operation inputs, a timed op, its check."""

    name = ""
    outputs: tuple = ()  # files an operation writes into the workdir

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.config = self.workdir / "scenario.cfg"
        self.inp = None

    def prepare(self, index: int) -> dict:
        """Inputs and config of operation `index`; clears earlier outputs."""
        self.inp = draw_inputs(self.name, self.seed, index)
        self.config.write_text(config_text(self.inp))
        for name in self.outputs:
            (self.workdir / name).unlink(missing_ok=True)
        return self.inp

    def run(self):
        """The timed operation; returns what check() needs."""
        raise NotImplementedError

    def samples(self, output) -> int:
        """Output samples one operation produced."""
        raise NotImplementedError

    def check(self, output) -> list[str]:
        """Problems with one operation's output (empty when correct)."""
        raise NotImplementedError


class TraceReadme(Workload):
    name = "trace-readme"
    outputs = ("bench_trajectory.csv", "bench_breakdown.csv")

    def run(self):
        _main(["trace", str(self.config), "--outdir", str(self.workdir),
               "--label", "bench"])
        return self.workdir / "bench_trajectory.csv"

    def samples(self, output) -> int:
        return self.inp["n_steps"] + 1

    def check(self, output) -> list[str]:
        ref = checks.TrajectoryReference.solve(self.inp, self.inp["t_max"],
                                               self.inp["n_steps"])
        problems = checks.check_trajectory_csv(ref, checks.read_csv(output))
        breakdown = checks.read_csv(self.workdir / "bench_breakdown.csv")
        return problems + checks.check_breakdown(self.inp, breakdown)


class CompareSubohmic(Workload):
    name = "compare-subohmic"

    def prepare(self, index: int) -> dict:
        from qdeph.cli import parse_config
        inp = super().prepare(index)
        self.scenario = parse_config(self.config.read_text())
        return inp

    def run(self):
        from qdeph import cli
        s = self.scenario
        return cli.build_comparison(s.params, COMPARE_T_MAX, s.quadrature,
                                    n_points=COMPARE_POINTS)

    def samples(self, output) -> int:
        return int(output.times.size)

    def check(self, output) -> list[str]:
        return checks.check_comparison(self.inp, output, COMPARE_POINTS,
                                       COMPARE_T_MAX)


class SweepOhmic(Workload):
    name = "sweep-ohmic"
    outputs = ("bench_sweep_lambda.csv",)

    def run(self):
        values = ",".join(repr(v) for v in self.inp["sweep_values"])
        _main(["sweep", str(self.config), "--axis", "lambda", "--values",
               values, "--jobs", str(SWEEP_JOBS), "--outdir",
               str(self.workdir), "--label", "bench"])
        return self.workdir / "bench_sweep_lambda.csv"

    def samples(self, output) -> int:
        return len(self.inp["sweep_values"])

    def check(self, output) -> list[str]:
        return checks.check_sweep_csv(self.inp, checks.read_csv(output),
                                      self.inp["sweep_values"], SWEEP_T_MAX,
                                      SWEEP_POINTS)


WORKLOADS = {w.name: w for w in (TraceReadme, CompareSubohmic, SweepOhmic)}
