"""Self-test of the benchmark at toy sizes.

    python3 -m pytest -q perfbench

A 2 x 2 grid, the exterior algebra at nmax 2 and five monomial presentations
stand in for the full workloads.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def mods():
    return run.engine_modules()


def toy_items(mods, seed=0):
    items = workloads.grid(mods, 2, "rational")
    items += workloads.exterior(mods, 2)
    monomials = [i for i in workloads.sweep(mods, seed, monomials_per_field=3)
                 if i.name.startswith("monomial")]
    items += sorted(monomials, key=lambda i: i.name)[:5]
    return items


@pytest.fixture(scope="module")
def toy_reference(mods):
    return {i.name: run.digest(run.render(mods, i)) for i in toy_items(mods)}


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def spec_table(key):
    return {m["name"]: (m["unit"], m["better"]) for m in benchmark_spec()[key]}


def printed_table(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_grid_generator_matches_builtin_cubical_torus(mods):
    cell = workloads.torus_grid_complex(mods, 2)
    builtin = mods.families.torus_cubical_complex()
    assert (len(cell.vertices), len(cell.edges), len(cell.faces)) == (
        len(builtin.vertices), len(builtin.edges), len(builtin.faces))
    [item] = workloads.grid(mods, 2, "rational")
    doc = json.loads(run.render(mods, item))
    assert doc["hh"] == [1, 2, 1, 0]
    assert doc["small_complex_dims"] == [16, 32, 16]
    assert not run.invariant_problems(item, run.render(mods, item))


def test_family_documents_are_the_cli_bytes(mods):
    item = next(i for i in workloads.sweep(mods, 0, monomials_per_field=0)
                if i.name == "torus-c-q3-fp:7")
    out = io.StringIO()
    assert mods.cli.main(["report", "--family", "torus-c", "--q", "3", "--field", "fp:7",
                          "--out", "json"], stream=out) == 0
    assert run.render(mods, item) == out.getvalue().encode()


def test_seed_relabels_without_changing_documents(mods):
    a = {i.name: i for i in toy_items(mods, seed=0)}
    b = {i.name: i for i in toy_items(mods, seed=7919)}
    assert a.keys() == b.keys()
    moved = [n for n in a if a[n].presentation.quiver != b[n].presentation.quiver]
    assert moved
    for name in a:
        assert run.render(mods, a[name]) == run.render(mods, b[name])


def test_end_to_end_metrics_named_with_units(mods, toy_reference):
    runner = run.Runner(mods, toy_items(mods), toy_reference)
    res = run.result(runner, run.measure(runner, 0, lambda: None), run.END_TO_END)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 2
    spec = spec_table("end_to_end")
    assert printed_table(res) == {name: unit for name, (unit, _) in spec.items()}
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_host_clock_scales_wall_time_by_probe_time():
    clock = hostspeed.HostClock()
    ref = hostspeed.REFERENCE_PROBE_S
    clock.starts = [k / 10 for k in range(30)]
    clock.ends = [t + ref / 2 for t in clock.starts]
    # probe runs inside the stretch are not its time; a host running the
    # probe twice as fast as the reference host doubles the rest
    wall = 1.0 - 10 * ref / 2
    assert clock.wall(0.95, 1.95) == pytest.approx(wall)
    assert clock.seconds(0.95, 1.95) == pytest.approx(2 * wall)
    clock.ends = [t + 2 * ref for t in clock.starts]
    assert clock.seconds(0.95, 1.95) == pytest.approx((1.0 - 20 * ref) / 2)


def test_per_layer_metrics_named_with_units(mods, toy_reference, tmp_path):
    items = toy_items(mods)
    runner = run.Runner(mods, items, toy_reference)
    metrics = run.measure_traced(runner, 0, lambda span: toy_items(mods), tmp_path / "spans.json")
    res = run.result(runner, metrics, tracer.METRICS)
    assert res["correct"]
    spec = spec_table("per_layer")
    assert printed_table(res) == {name: unit for name, (unit, _) in spec.items()}
    assert metrics["trace.coverage_frac"] >= 0.9
    assert metrics["hochschild.cochain_dim.C3"] > 0
    assert metrics["linalg.rank.d2"] > 0
    assert json.loads((tmp_path / "spans.json").read_text())["spans"]
    # the tracer restored the engine's own functions
    assert mods.cli.build_report.__module__ == "quiverhh.cli"
    assert mods.rewrite.QuotientAlgebra.mul_basis.__qualname__ == "QuotientAlgebra.mul_basis"


def test_counts_repeat_exactly(mods, toy_reference, tmp_path):
    def counts():
        runner = run.Runner(mods, toy_items(mods), toy_reference)
        m = run.measure_traced(runner, 0, lambda span: [], tmp_path / "spans.json")
        return {k: v for k, v in m.items() if isinstance(v, int)}

    assert counts() == counts()


def test_digest_gate_trips_on_corrupted_reference(mods, toy_reference):
    corrupted = dict(toy_reference)
    name = next(iter(corrupted))
    corrupted[name] = "0" * 64
    runner = run.Runner(mods, toy_items(mods), corrupted)
    res = run.result(runner, run.measure(runner, 0, lambda: None), run.END_TO_END)
    assert not res["correct"]
    assert res["failed"] == run.MIN_PASSES


def test_invariants_trip_on_wrong_expectation(mods):
    [item] = workloads.grid(mods, 2, "fp:7")
    item.expect["cup_rank"] = 0
    assert run.invariant_problems(item, run.render(mods, item)) == ["cup_rank 1 != 0"]


def test_spec_matches_workloads_and_command():
    spec = benchmark_spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {n: (u, b) for n, u, b in run.END_TO_END} == spec_table("end_to_end")
    assert {n: (u, b) for n, u, b in tracer.METRICS} == spec_table("per_layer")


def test_refuses_to_run_without_the_engine(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
