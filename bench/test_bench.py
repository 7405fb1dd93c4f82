"""Tests of the benchmark itself: python3 -m pytest bench"""

import json
import os
import subprocess
import sys

import pytest

import gen
import oracle
import run

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", ["grid-sampled", "coeff-series"])
def test_generator_is_deterministic_for_a_seed(tmp_path, workload):
    first = gen.generate(workload, 7, str(tmp_path / "a"))
    again = gen.generate(workload, 7, str(tmp_path / "b"))
    other = gen.generate(workload, 8, str(tmp_path / "c"))
    assert first == again
    assert first["files"] != other["files"]
    assert [j["id"] for j in first["jobs"]] == [j["id"] for j in other["jobs"]]


def test_self_time_subtracts_direct_children_only():
    # main [0, 10] holds a [1, 4] (which holds b [2, 3]) and a [5, 9].
    spans = [[0, 0.0, 10.0, -1, 0, 0, [0, 0]],
             [1, 1.0, 4.0, 0, 0, 0, [64, 1]],
             [2, 2.0, 3.0, 1, 1, 0, [0, 0]],
             [1, 5.0, 9.0, 0, 0, 0, [32, 1]]]
    assert run.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    doc = {"names": ["cli.main", "spectrum.partial_sum_grid",
                     "_quad.integrate"], "spans": spans}
    funcs = run.aggregate([doc, doc], rounds=2)
    assert funcs["spectrum.partial_sum_grid"]["calls"] == 2
    assert funcs["spectrum.partial_sum_grid"]["self_s"] == 6.0
    assert funcs["_quad.integrate"]["fail"] == 1
    m = run.per_layer(funcs, 0, 1.0, 0.5)
    assert m["cli.main.self_share"] == (0.3, "1")
    assert m["spectrum.self_share"] == (0.6, "1")
    assert m["quad.integrate.self_share"] == (0.1, "1")
    assert m["spectrum.partial_sum_grid.terms"] == (96, "count")
    assert m["trace.cli_main_s"] == (10.0, "s")
    assert m["trace.overhead_s"] == (0.5, "s")


def test_benchmark_json_names_every_reported_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    layer = run.per_layer({}, 0, 1.0, 1.0)
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == \
        {k: unit for k, (_, unit) in layer.items()}
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert gen.WORKLOADS == run.WORKLOADS


def test_tail_keeps_ten_samples_beyond():
    value, pct = run.tail([float(i) for i in range(40)])
    assert value == 29.0 and pct == 75.0
    assert sum(v > value for v in range(40)) == 10


def _run_cli(job, cwd):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    subprocess.run([sys.executable, "-m", "circlecomb.cli", *job["argv"]],
                   cwd=cwd, env=env, check=True)


def _job(manifest, jid):
    return next(j for j in manifest["jobs"] if j["id"] == jid)


def test_oracle_flags_a_corrupted_grid(tmp_path, monkeypatch):
    manifest = gen.generate("grid-sampled", 3, str(tmp_path))
    job = _job(manifest, "filter-step512")
    _run_cli(job, tmp_path)
    monkeypatch.chdir(tmp_path)
    assert oracle.judge(job)["ok"]
    path = tmp_path / job["outputs"][0]
    lines = path.read_text().splitlines()
    theta, value, flag = lines[100].split(",")
    lines[100] = f"{theta},{float(value) + 1e-7!r},{flag}"
    path.write_text("\n".join(lines) + "\n")
    verdict = oracle.judge(job)
    assert not verdict["ok"]
    assert verdict["error"] > verdict["bound"]


def test_oracle_flags_corrupted_coefficients(tmp_path, monkeypatch):
    manifest = gen.generate("coeff-series", 3, str(tmp_path))
    job = _job(manifest, "spectrum-delta_derivative-8192")
    _run_cli(job, tmp_path)
    monkeypatch.chdir(tmp_path)
    assert oracle.judge(job)["ok"]
    path = tmp_path / job["outputs"][0]
    doc = json.loads(path.read_text())
    doc["terms"][4000]["b"] *= 1.0 + 1e-6
    path.write_text(json.dumps(doc))
    assert not oracle.judge(job)["ok"]
