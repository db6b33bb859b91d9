"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run

run.import_qdeph()

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from qdeph import big_f, breakdown_grid, solve_full_equation  # noqa: E402
from qdeph import solver  # noqa: E402
from qdeph.cli import build_comparison, parse_config  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Shrink every workload and keep the run's files in tmp_path."""
    for name, value in (("N_README", 200), ("COMPARE_POINTS", 2), ("COMPARE_T_MAX", 0.2),
                        ("SWEEP_VALUES", 2)):
        monkeypatch.setattr(workloads, name, value)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "OUT", tmp_path / "out")
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    return tmp_path


def _run(capsys, workload: str, trace: int, seed: int = 3) -> dict:
    assert run.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", "0", "--trace", str(trace)]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_metric_is_emitted_with_its_unit(tiny, capsys, workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = _run(capsys, workload, trace)
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= run.MIN_OPS
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want
        assert all(isinstance(v["value"], (int, float))
                   for v in result["metrics"].values())
    record = json.loads((tiny / "out" / f"{workload}_seed3_trace1.json")
                        .read_text())
    assert record["seed"] == 3 and record["ops"]
    for o in record["ops"]:  # raw time and probes kept beside the rescaled
        assert o["ref_s"] == pytest.approx(
            o["wall_s"] * run.PROBE_REF_S / (0.5 * sum(o["probe_s"])))
    assert (tiny / "out" / f"{workload}_seed3_trace1_spans.json").is_file()
    assert not (tiny / "work").exists()


def _traced_op_counts(tiny, workload: str, metrics: dict) -> list[dict]:
    names = [k for k, v in metrics.items() if v["unit"] == "count"]
    record = json.loads((tiny / "out" / f"{workload}_seed3_trace1.json")
                        .read_text())
    ops = [o for o in record["ops"] if o["traced"]][:run.MIN_OPS]
    assert len(ops) == run.MIN_OPS
    return [{k: o["layers"][k] for k in names} for o in ops]


def test_traced_counts_repeat_and_predicted_zeros_hold(tiny, capsys):
    counts = {}
    for workload in WORKLOAD_NAMES:
        per_op = []
        for _ in range(2):
            metrics = _run(capsys, workload, 1)["metrics"]
            per_op.append(_traced_op_counts(tiny, workload, metrics))
        assert per_op[0] == per_op[1]
        counts[workload] = {k: v["value"] for k, v in metrics.items()
                            if v["unit"] == "count"}
    for workload in ("trace-readme", "sweep-ohmic"):
        assert counts[workload]["spectral.scalar.calls"] == 0
    for workload in ("compare-subohmic", "sweep-ohmic"):
        assert counts[workload]["solver.solve.calls"] == 0
    assert counts["compare-subohmic"]["kernels.big_f.calls"] > 0
    assert counts["sweep-ohmic"]["model.breakdown_grid.calls"] == 2


def test_seeds_and_ops_give_different_valid_inputs():
    for workload in WORKLOAD_NAMES:
        a, b, c = (workloads.draw_inputs(workload, s, op)
                   for s, op in ((1, 0), (2, 0), (1, 1)))
        assert a != b and a != c
        assert a == workloads.draw_inputs(workload, 1, 0)
        for inp in (a, b, c):
            s = parse_config(workloads.config_text(inp))
            assert s.params.spectral.coupling == inp["lambda"]
            assert 0.0 < s.params.sigma3_mean < 1.0


def test_checker_flags_a_perturbed_trajectory():
    inp = dict(workloads.draw_inputs("trace-readme", 1, 0), n_steps=400)
    s = parse_config(workloads.config_text(inp))
    traj = solve_full_equation(s.params, s.solver, s.quadrature)
    ref = checks.TrajectoryReference.solve(inp, s.solver.t_max, 400)
    assert ref.check(traj.times, traj.values) == []
    y0 = abs(traj.values[0])
    for k in (3, 41, 200, 400):
        bad = traj.values.copy()
        bad[k] += 1e-3 * y0
        assert ref.check(traj.times, bad), k
    # a smooth error several times the discretization error
    drift = 0.02 * y0 * np.sin(np.pi * traj.times / traj.times[-1])
    assert ref.check(traj.times, traj.values + drift)


def test_checker_flags_a_trajectory_on_a_wrong_thermal_kernel(monkeypatch):
    inp = dict(workloads.draw_inputs("trace-readme", 1, 0), n_steps=400)
    s = parse_config(workloads.config_text(inp))
    ref = checks.TrajectoryReference.solve(inp, s.solver.t_max, 400)
    build = solver.build_kernel_table

    def scaled_k_cos_th(*args, **kwargs):
        table = build(*args, **kwargs)
        object.__setattr__(table, "k_cos_th", table.k_cos_th * 1.01)
        return table

    monkeypatch.setattr(solver, "build_kernel_table", scaled_k_cos_th)
    traj = solve_full_equation(s.params, s.solver, s.quadrature)
    assert ref.check(traj.times, traj.values)


BREAKDOWN_COLUMNS = ("t", "chi", "chi_renorm", "gamma_vac", "gamma_th",
                     "gamma_cor", "gamma_cor_renorm", "gamma_cor_exact",
                     "f_of_t")


def test_checker_flags_wrong_grid_transform_columns():
    inp = workloads.draw_inputs("trace-readme", 1, 0)
    p = parse_config(workloads.config_text(inp)).params
    bds = breakdown_grid(p, np.linspace(0.0, 10.0, 41))
    cols = {k: [repr(float(getattr(b, k))) for b in bds]
            for k in BREAKDOWN_COLUMNS}
    assert checks.check_breakdown(inp, cols) == []
    for name in ("gamma_th", "chi_renorm", "gamma_cor_renorm"):
        bad = dict(cols)
        bad[name] = list(cols[name])
        bad[name][17] = repr(float(bad[name][17]) * (1.0 + 1e-6))
        problems = checks.check_breakdown(inp, bad)
        assert problems and problems[0].startswith(name), name


def test_a_check_that_raises_fails_the_op(tmp_path):
    class Broken(workloads.Workload):
        name = "trace-readme"

        def run(self):
            return None

        def samples(self, output):
            return 1

        def check(self, output):
            raise FileNotFoundError("no output")

    op = run.timed_op(Broken(1, tmp_path), 0)
    assert not op["ok"] and "check raised" in op["problems"][0]


def test_checker_flags_a_wrong_f_value():
    inp = dict(workloads.draw_inputs("compare-subohmic", 1, 0))
    s = parse_config(workloads.config_text(inp))
    ts = np.array([0.1, 0.2])
    f = np.array([big_f(s.params.spectral, inp["sigma3_mean"], t)
                  for t in ts])
    assert checks.check_f_values(inp, ts, f) == []
    assert checks.check_f_values(inp, ts, f * np.array([1.0, 1.0 + 1e-6]))

    # the same F feeds gamma_cor_renorm in a comparison report
    report = build_comparison(s.params, 0.2, s.quadrature, n_points=2)
    assert checks.check_comparison(inp, report, 2, 0.2) == []
    report.gamma_cor_renorm[-1] += 1e-5
    assert checks.check_comparison(inp, report, 2, 0.2)

    # and the Ohmic breakdown's f_of_t column
    ohmic = workloads.draw_inputs("trace-readme", 1, 0)
    p = parse_config(workloads.config_text(ohmic)).params
    bds = breakdown_grid(p, np.linspace(0.0, 10.0, 21))
    cols = {k: [repr(float(getattr(b, k))) for b in bds]
            for k in BREAKDOWN_COLUMNS}
    assert checks.check_breakdown(ohmic, cols) == []
    cols["f_of_t"][7] = repr(float(cols["f_of_t"][7]) * (1.0 + 1e-6))
    assert checks.check_breakdown(ohmic, cols)


def test_self_time_subtracts_the_union_of_overlapping_children():
    def span(id_, parent, start, end):
        s = tracing.Span()
        s.id, s.parent, s.start, s.end = id_, parent, start, end
        return s

    spans = [span(1, None, 0.0, 10.0), span(2, 1, 1.0, 5.0),
             span(3, 1, 3.0, 6.0), span(4, 1, 8.0, 9.0), span(5, 2, 1.0, 2.0)]
    self_s = tracing._self_times(spans, tracing._children(spans))
    assert self_s[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert self_s[2] == pytest.approx(3.0)


def test_fails_without_a_qdeph_checkout(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "trace-readme",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
