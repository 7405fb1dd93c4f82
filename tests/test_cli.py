"""End-to-end command-line checks, file formats included."""

import contextlib
import inspect
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import circlecomb._quad
from circlecomb import catalog, classify, cli, disk, realfilter, spectrum
from circlecomb.catalog import make
from circlecomb.formats import (
    dumps_json,
    load_coefficients,
    read_grid,
    report_to_doc,
    save_coefficients,
    write_grid,
)
from circlecomb.realfilter import GridFunction, grid_evaluator, kernel_filter_grid
from circlecomb.rescale import IntervalMap
from circlecomb.spectrum import grid_nodes
from conftest import reference_grid_csv, reference_json


def run_cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "circlecomb.cli",
                           *[str(a) for a in args]],
                          capture_output=True, text=True, cwd=cwd)


def verdicts(report_doc):
    return dict(Counter(node["verdict"] for node in report_doc["nodes"]))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Shared input files: grids and coefficient JSONs."""
    d = tmp_path_factory.mktemp("cli")
    th = grid_nodes(256)

    write_grid(d / "cos256.csv", GridFunction(np.cos(th),
                                              np.ones(256, bool)))

    spiked = np.cos(th)
    spiked[192] = 99.0  # theta = pi/2
    write_grid(d / "spiked256.csv", GridFunction(spiked,
                                                 np.ones(256, bool)))

    step = np.where(th < -np.pi / 2, 0.0, 1.0)
    step[th == -np.pi / 2] = 0.5
    step[0] = 0.5
    write_grid(d / "step256.csv",
               GridFunction(step, np.ones(256, bool),
                            singular_points=(-np.pi / 2, -np.pi)))

    th1024 = grid_nodes(1024)
    write_grid(d / "cos1024.csv", GridFunction(np.cos(th1024),
                                               np.ones(1024, bool)))

    save_coefficients(d / "cosseq.json", make("cosine", k=1).coefficients(32))
    save_coefficients(d / "delta.json", make("delta",
                                             theta0=0.0).coefficients(16))
    save_coefficients(d / "square.json",
                      make("square_wave").coefficients(256))
    return d


class TestSpectrum:
    def test_catalog_point_mass_to_stdout(self):
        p = run_cli("spectrum", "--catalog", "delta", "--theta0", "0",
                    "--n", "8")
        assert p.returncode == 0
        doc = json.loads(p.stdout)
        assert doc["n"] == 8
        assert doc["a0"] == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-15)
        assert doc["terms"][0]["a"] == pytest.approx(1.0 / math.pi,
                                                     rel=1e-15)
        assert doc["generator"]["name"] == "delta"

    def test_catalog_constant_flag(self):
        p = run_cli("spectrum", "--catalog", "constant", "--c", "3")
        doc = json.loads(p.stdout)
        assert doc["a0"] == 3
        assert all(t["a"] == 0 and t["b"] == 0 for t in doc["terms"])

    def test_catalog_spike_flags_delegate_to_the_base(self):
        p = run_cli("spectrum", "--catalog", "spiked", "--base", "cosine",
                    "--point", "0.5", "--value", "9", "--n", "4")
        doc = json.loads(p.stdout)
        assert p.returncode == 0
        assert [t["a"] for t in doc["terms"]] == [1, 0, 0, 0]

    def test_grid_input_integrates_the_samples(self, workdir):
        out = workdir / "cseq.json"
        p = run_cli("spectrum", "--input", workdir / "cos1024.csv",
                    "--n", "4", "--output", out)
        assert p.returncode == 0
        seq = load_coefficients(out)
        assert abs(seq.a[0] - 1.0) < 1e-5
        assert np.max(np.abs(seq.b)) < 1e-12
        assert np.max(np.abs(seq.a[1:])) < 1e-6


class TestFilter:
    def test_coefficient_input_scales_the_harmonics(self, workdir):
        out = workdir / "filtered.json"
        p = run_cli("filter", "--input", workdir / "delta.json",
                    "--eps", "0.3", "--output", out)
        assert p.returncode == 0
        seq = load_coefficients(out)
        k = np.arange(1, 17)
        expect = (1.0 / math.pi) * np.sin(k * 0.3) / (k * 0.3)
        assert np.max(np.abs(seq.a - expect)) < 1e-15

    def test_grid_input_runs_the_window_quadrature(self, workdir):
        th = grid_nodes(256)
        out = workdir / "filtered.csv"
        p = run_cli("filter", "--input", workdir / "cos256.csv",
                    "--eps", "0.1", "--output", out)
        assert p.returncode == 0
        grid = read_grid(out)
        assert grid.domain is None
        model = np.cos(th) * math.sin(0.1) / 0.1
        assert np.max(np.abs(grid.values - model)) < 1e-4

    def test_interval_grids_use_physical_widths_and_mask_the_seam(
            self, workdir):
        m = IntervalMap(0.0, 10.0)
        xs = m.from_canonical(grid_nodes(256))
        path = workdir / "phys.csv"
        write_grid(path, GridFunction(np.cos(xs), np.ones(256, bool),
                                      domain=(0.0, 10.0)))
        out = workdir / "physfiltered.csv"
        p = run_cli("filter", "--input", path, "--eps", "0.3",
                    "--output", out)
        assert p.returncode == 0
        grid = read_grid(out)
        assert grid.domain == (0.0, 10.0)
        assert not bool(grid.defined.all())  # seam neighbourhood masked
        assert grid.note.endswith("boundary-masked")
        model = np.cos(xs) * math.sin(0.3) / 0.3
        good = grid.defined
        assert np.max(np.abs(grid.values[good] - model[good])) < 1e-3

    def test_the_half_length_is_the_widest_physical_window(self, tmp_path):
        # 50 maps to a canonical pi exactly; every window reaches the
        # seam, so every node is masked.
        path, out = tmp_path / "g.csv", tmp_path / "out.csv"
        write_grid(path, GridFunction(np.ones(64), np.ones(64, bool)))
        assert cli.main(["filter", "--input", str(path), "--eps", "50",
                         "--domain", "0,100", "--output", str(out)]) == 0
        grid = read_grid(out)
        assert grid.domain == (0.0, 100.0)
        assert not grid.defined.any()


class TestClassify:
    TOL = "1e-3"  # matched to what 256 piecewise-linear samples resolve

    def test_smooth_grid_is_combed(self, workdir):
        p = run_cli("classify", "--input", workdir / "cos256.csv",
                    "--tol", self.TOL)
        assert p.returncode == 0
        doc = json.loads(p.stdout)
        assert doc["overall"] == "combed"
        assert verdicts(doc) == {"recovered": 256}

    def test_spiked_grid_is_ragged_at_the_spike(self, workdir):
        out = workdir / "report.json"
        p = run_cli("classify", "--input", workdir / "spiked256.csv",
                    "--tol", self.TOL, "--output", out)
        assert p.returncode == 0
        doc = json.loads(out.read_text())
        assert doc["overall"] == "ragged"
        tally = verdicts(doc)
        assert tally["spike_mismatch"] == 1
        assert tally["recovered"] == 239
        flagged = [n["theta"] for n in doc["nodes"]
                   if n["verdict"] == "spike_mismatch"]
        assert flagged == [pytest.approx(math.pi / 2)]

    def test_step_grid_with_declared_jumps_is_combed(self, workdir):
        p = run_cli("classify", "--input", workdir / "step256.csv",
                    "--tol", self.TOL)
        doc = json.loads(p.stdout)
        assert doc["overall"] == "combed"
        assert verdicts(doc) == {"recovered": 256}

    def test_coefficient_input_produces_a_certificate(self, workdir):
        p = run_cli("classify", "--input", workdir / "delta.json")
        assert p.returncode == 0
        doc = json.loads(p.stdout)
        assert doc["overall"] == "combed"
        assert doc["params"]["method"] == "coefficients"
        assert doc["nodes"] == []


class TestComb:
    def test_filter_limit_masks_grid_spikes(self, workdir):
        out = workdir / "comb_fl.csv"
        p = run_cli("comb", "--input", workdir / "spiked256.csv",
                    "--method", "filter-limit", "--grid", "64",
                    "--output", out)
        assert p.returncode == 0
        grid = read_grid(out)
        th = grid.thetas()
        # a sampled spike carries real mass, so its node is a hole ...
        assert list(th[~grid.defined]) == [pytest.approx(math.pi / 2)]
        # ... and far away the limits recover the underlying cosine
        far = grid.defined & (np.abs(th - math.pi / 2) > 0.3)
        assert np.max(np.abs(grid.values[far] - np.cos(th[far]))) < 1e-3
        assert grid.note == "combed by shrinking-window limits"

    def test_fourier_from_coefficients_is_exact_for_a_polynomial(
            self, workdir):
        out = workdir / "comb_f.csv"
        p = run_cli("comb", "--input", workdir / "cosseq.json",
                    "--method", "fourier", "--grid", "64", "--output", out)
        assert p.returncode == 0
        grid = read_grid(out)
        assert np.array_equal(grid.values, np.cos(grid.thetas()))
        assert grid.note == "series reconstruction at n=32"

    def test_fourier_flags_mass_polluted_grids(self, workdir):
        out = workdir / "comb_fp.csv"
        p = run_cli("comb", "--input", workdir / "spiked256.csv",
                    "--method", "fourier", "--n", "16", "--grid", "64",
                    "--output", out)
        assert p.returncode == 0
        grid = read_grid(out)
        assert grid.note.endswith("NonConvergent")

    def test_disk_route_from_coefficients(self, workdir):
        out = workdir / "comb_d.csv"
        p = run_cli("comb", "--input", workdir / "cosseq.json",
                    "--method", "disk", "--grid", "64", "--output", out)
        assert p.returncode == 0
        grid = read_grid(out)
        assert np.max(np.abs(grid.values - np.cos(grid.thetas()))) < 1e-8

    def test_grid_routes_keep_the_grid_singular_points(self, workdir,
                                                       tmp_path):
        for method in ("filter-limit", "fourier", "disk"):
            out = tmp_path / f"{method}.csv"
            assert cli.main(["comb", "--input", str(workdir / "step256.csv"),
                             "--method", method, "--output", str(out)]) == 0
            assert read_grid(out).singular_points == (-math.pi / 2,
                                                      -math.pi), method

    def test_disk_route_accepts_a_radius_schedule(self, workdir):
        out = workdir / "comb_dr.csv"
        p = run_cli("comb", "--input", workdir / "cosseq.json",
                    "--method", "disk", "--grid", "64",
                    "--rho-schedule", "0.9,0.95,0.975,0.9875",
                    "--output", out)
        assert p.returncode == 0
        grid = read_grid(out)
        assert np.max(np.abs(grid.values - np.cos(grid.thetas()))) < 1e-8


class TestEval:
    def test_ring_values(self, workdir):
        out = workdir / "ring.csv"
        p = run_cli("eval", "--input", workdir / "cosseq.json",
                    "--rho", "0.5", "--grid", "64", "--output", out)
        assert p.returncode == 0
        grid = read_grid(out)
        assert grid.domain is None
        assert np.array_equal(grid.values, 0.5 * np.cos(grid.thetas()))
        assert grid.note == "ring values at rho=0.5"

    def test_boundary_extrapolation(self, workdir):
        out = workdir / "boundary.csv"
        p = run_cli("eval", "--input", workdir / "cosseq.json",
                    "--rho-schedule", "0.99,0.995,0.9975,0.99875",
                    "--grid", "64", "--output", out)
        assert p.returncode == 0
        grid = read_grid(out)
        assert np.max(np.abs(grid.values - np.cos(grid.thetas()))) < 1e-8
        assert grid.note == "boundary values by radial extrapolation"

    def test_domain_flag_tags_the_output(self, workdir):
        out = workdir / "ringdom.csv"
        p = run_cli("eval", "--input", workdir / "cosseq.json",
                    "--rho", "0.5", "--grid", "64",
                    "--domain", "0,10", "--output", out)
        assert p.returncode == 0
        assert read_grid(out).domain == (0.0, 10.0)


def test_library_and_cli_agree_on_an_interval_grid(tmp_path):
    # A ramp x sampled on [0, 10]: the library masks the seam from the
    # grid's own domain, as the CLI does.
    xs = IntervalMap(0.0, 10.0).from_canonical(grid_nodes(128))
    path = tmp_path / "ramp.csv"
    write_grid(path, GridFunction(xs, np.ones(128, bool), domain=(0.0, 10.0)))
    grid = read_grid(path)

    assert cli.main(["filter", "--input", str(path), "--eps", "0.5",
                     "--output", str(tmp_path / "f.csv")]) == 0
    cli_out = read_grid(tmp_path / "f.csv")
    lib_out = kernel_filter_grid(
        grid, IntervalMap(*grid.domain).epsilon_to_canonical(0.5))
    assert np.array_equal(lib_out.defined, cli_out.defined)
    assert not lib_out.defined.all()
    assert np.array_equal(lib_out.values, cli_out.values, equal_nan=True)
    assert lib_out.note == cli_out.note

    assert cli.main(["classify", "--input", str(path),
                     "--output", str(tmp_path / "r.json")]) == 0
    report = classify.classify_pointwise(grid_evaluator(grid), n_grid=128)
    assert (tmp_path / "r.json").read_text() == \
        dumps_json(report_to_doc(report)) + "\n"


class TestPipelines:
    def test_samples_to_coefficients_and_back(self, workdir):
        seq_path = workdir / "rt.json"
        grid_path = workdir / "rt.csv"
        p = run_cli("spectrum", "--input", workdir / "cos1024.csv",
                    "--n", "8", "--output", seq_path)
        assert p.returncode == 0
        p = run_cli("comb", "--input", seq_path, "--method", "fourier",
                    "--grid", "1024", "--output", grid_path)
        assert p.returncode == 0
        grid = read_grid(grid_path)
        assert np.max(np.abs(grid.values - np.cos(grid.thetas()))) < 1e-5

    def test_reruns_are_byte_identical(self, workdir):
        outs = []
        for name in ("det1.csv", "det2.csv"):
            out = workdir / name
            p = run_cli("filter", "--input", workdir / "cos256.csv",
                        "--eps", "0.1", "--output", out)
            assert p.returncode == 0
            outs.append(out)
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert (workdir / "det1.csv.json").read_bytes() == \
            (workdir / "det2.csv.json").read_bytes()


class TestExitCodes:
    def test_usage_errors_exit_2(self, workdir):
        cases = [
            ("spectrum", "--catalog", "nosuch"),
            ("spectrum", "--catalog", "cosine",
             "--input", workdir / "cos256.csv"),
            ("spectrum",),
            ("filter", "--input", workdir / "cosseq.json", "--eps", "0.1",
             "--method", "kernel", "--output", workdir / "x.json"),
            ("filter", "--input", workdir / "cos256.csv", "--eps", "1e-4",
             "--output", workdir / "x.csv"),
            ("spectrum", "--input", workdir / "missing.csv"),
            ("eval", "--input", workdir / "cosseq.json",
             "--output", workdir / "x.csv"),
        ]
        for args in cases:
            p = run_cli(*args)
            assert p.returncode == 2, p.stderr
            assert p.stdout == ""

    def test_numeric_failures_exit_3(self, workdir):
        th = grid_nodes(16)
        defined = np.ones(16, bool)
        defined[4:7] = False
        values = np.where(defined, np.cos(th), np.nan)
        path = workdir / "holey.csv"
        write_grid(path, GridFunction(values, defined))
        p = run_cli("spectrum", "--input", path, "--n", "4")
        assert p.returncode == 3
        assert "numeric failure" in p.stderr

    @pytest.mark.parametrize("sidecar", [
        '{"singular_points": 5}',
        '{"singular_points": ["x"]}',
        '{"domain": ["a", 1]}',
        '{"singular_points": [NaN]}',
        '{"singular_points": [1' + '0' * 400 + ']}',
    ], ids=["points-not-a-list", "point-not-a-number", "domain-not-numbers",
            "point-nan", "point-beyond-float"])
    def test_malformed_sidecars_exit_2_before_any_work(self, tmp_path,
                                                        sidecar):
        path = tmp_path / "g.csv"
        write_grid(path, GridFunction(np.cos(grid_nodes(16)),
                                      np.ones(16, bool)))
        (tmp_path / "g.csv.json").write_text(sidecar)
        out = tmp_path / "out.csv"
        p = run_cli("filter", "--input", path, "--eps", "0.5",
                    "--output", out)
        assert p.returncode == 2
        assert len(p.stderr.splitlines()) == 1
        assert "g.csv.json" in p.stderr
        assert not out.exists()

    @pytest.mark.parametrize("n", ["-5", "0"])
    @pytest.mark.parametrize("method", ["fourier", "disk"])
    def test_comb_refuses_truncation_orders_below_one(self, tmp_path,
                                                       capsys, method, n):
        path = tmp_path / "g.csv"
        write_grid(path, GridFunction(np.cos(grid_nodes(16)),
                                      np.ones(16, bool)))
        out = tmp_path / "out.csv"
        assert cli.main(["comb", "--input", str(path), "--method", method,
                         "--n", n, "--output", str(out)]) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["eval", "--input", "{seq}", "--rho", "0.5", "--grid", "{big}"],
        ["comb", "--input", "{seq}", "--method", "fourier",
         "--grid", "{big}"],
        ["comb", "--input", "{grid}", "--method", "fourier", "--n", "{big}"],
        ["spectrum", "--catalog", "cosine", "--n", "{big}"],
    ], ids=["eval-grid", "comb-grid", "comb-n", "spectrum-n"])
    def test_oversized_grids_and_orders_exit_2_before_any_work(
            self, workdir, tmp_path, capsys, argv):
        # One past the limit, so nothing large is ever allocated.
        out = tmp_path / "out"
        fill = {"seq": workdir / "cosseq.json", "grid": workdir / "cos256.csv",
                "big": (1 << 20) + 1}
        assert cli.main([a.format(**fill) for a in argv]
                        + ["--output", str(out)]) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("domain", ["5,1", "nan,1", "0,inf", "1,2,3",
                                        "-1.7e308,1.7e308"])
    def test_eval_refuses_bad_domains_and_writes_nothing(
            self, workdir, tmp_path, capsys, domain):
        out = tmp_path / "ring.csv"
        assert cli.main(["eval", "--input", str(workdir / "cosseq.json"),
                         "--rho", "0.5", "--grid", "16", f"--domain={domain}",
                         "--output", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "--domain" in err[0]
        assert not out.exists()
        assert not (tmp_path / "ring.csv.json").exists()

    @pytest.mark.parametrize("argv", [
        ["comb", "--method", "fourier"],
        ["spectrum"],
    ], ids=["comb-fourier", "spectrum"])
    def test_reversed_sidecar_domain_exits_2(self, tmp_path, capsys, argv):
        path = tmp_path / "g.csv"
        write_grid(path, GridFunction(np.cos(grid_nodes(16)),
                                      np.ones(16, bool)))
        (tmp_path / "g.csv.json").write_text('{"domain": [5, 1]}')
        out = tmp_path / "out"
        assert cli.main([*argv, "--input", str(path),
                         "--output", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "g.csv.json" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("doc", [
        '{"a0": "1.5", "n": 1, "terms": [{"k": 1, "a": 0, "b": 0}]}',
        '{"a0": 0, "n": 1, "terms": [{"k": 1, "a": "2", "b": 0}]}',
        '{"a0": 0, "n": true, "terms": [{"k": 1, "a": 0, "b": 0}]}',
        '{"a0": 0, "n": 1, "terms": [{"k": true, "a": 0, "b": 0}]}',
        '{"a0": 0, "n": 1.9, "terms": [{"k": 1, "a": 0, "b": 0}]}',
        '{"a0": 0, "n": 1, "terms": [{"k": 1, "a": false, "b": 0}]}',
        '{"a0": 0, "n": 1, "terms": [{"k": 1, "a": 1' + '0' * 400 + ', '
        '"b": 0}]}',
    ], ids=["a0-string", "a-string", "n-bool", "k-bool", "n-fraction",
            "a-bool", "a-beyond-float"])
    def test_loosely_typed_coefficient_json_exits_2(self, tmp_path, capsys,
                                                     doc):
        path = tmp_path / "seq.json"
        path.write_text(doc)
        out = tmp_path / "ring.csv"
        assert cli.main(["eval", "--input", str(path), "--rho", "0.5",
                         "--output", str(out)]) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["classify", "--input", "{seq}", "--eps-schedule", "3,2,1",
         "--tol", "-5"],
        ["comb", "--input", "{seq}", "--method", "fourier",
         "--eps-schedule", "3,2,1"],
        ["comb", "--input", "{seq}", "--method", "fourier",
         "--rho-schedule", "0.5,0.9,0.99"],
        ["comb", "--input", "{seq}", "--method", "disk",
         "--eps-schedule", "0.2,0.1,0.05"],
        ["comb", "--input", "{grid}", "--method", "filter-limit",
         "--rho-schedule", "0.5,0.2"],
        ["filter", "--input", "{seq}", "--eps", "0.1", "--domain", "0,1"],
        ["comb", "--input", "{grid}", "--method", "filter-limit", "--n",
         "3"],
        ["comb", "--input", "{seq}", "--method", "fourier", "--n", "5",
         "--grid", "64"],
        ["comb", "--input", "{seq}", "--method", "disk", "--n", "5"],
        ["spectrum", "--input", "{grid}", "--theta0", "1", "--k", "3"],
    ], ids=["classify-json", "fourier-eps", "fourier-rho", "disk-eps",
            "filter-limit-rho", "filter-json-domain", "filter-limit-n",
            "fourier-json-n", "disk-json-n", "spectrum-input-catalog"])
    def test_flags_the_route_never_reads_exit_2(self, workdir, tmp_path,
                                                capsys, argv):
        out = tmp_path / "out"
        fill = {"seq": workdir / "cosseq.json", "grid": workdir / "cos256.csv"}
        assert cli.main([a.format(**fill) for a in argv]
                        + ["--output", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "not read by" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["comb", "--input", "{seq}", "--method", "disk", "--rho-schedule",
          "0.9,nan,0.99"], "radii"),
        (["classify", "--input", "{grid}", "--eps-schedule", "nan,0.1,0.05"],
         "shrinking-window schedule"),
        (["classify", "--input", "{grid}", "--tol", "inf"], "tolerance tol"),
        (["spectrum", "--catalog", "step", "--l-minus=1e308",
          "--l-plus=-1e308"], "l_plus - l_minus"),
    ], ids=["disk-rho", "classify-eps", "classify-tol-inf", "step-levels"])
    def test_nan_schedules_exit_2_with_one_line(self, workdir, tmp_path,
                                                argv, message):
        out = tmp_path / "out"
        fill = {"seq": workdir / "square.json", "grid": workdir / "cos256.csv"}
        p = run_cli(*[a.format(**fill) for a in argv], "--output", out)
        assert p.returncode == 2
        err = p.stderr.splitlines()
        assert len(err) == 1 and message in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["comb", "--method", "bogus"],
        ["spectrum", "--n", "abc"],
        ["filter", "--input", "x.csv", "--eps", "0.1"],
    ], ids=["bad-choice", "bad-int", "missing-output"])
    def test_parser_errors_are_one_line(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"circlecomb {argv[0]}: ")

    def test_out_of_memory_exits_3_with_one_line(self, workdir, tmp_path,
                                                 capsys, monkeypatch):
        def exhaust(*args, **kwargs):
            raise MemoryError()
        monkeypatch.setattr(cli, "grid_coefficients", exhaust)
        out = tmp_path / "out.json"
        assert cli.main(["spectrum", "--input", str(workdir / "cos256.csv"),
                         "--output", str(out)]) == 3
        assert capsys.readouterr().err == \
            "circlecomb spectrum: numeric failure: MemoryError\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["comb", "--input", "{seq}", "--method", "disk"],
        ["eval", "--input", "{seq}", "--rho-schedule", "0.9,0.99,0.999"],
    ], ids=["comb-disk", "eval-rho-schedule"])
    def test_tail_warning_is_one_line(self, workdir, tmp_path, argv):
        # 256 harmonics of a square wave cannot reach radii this close
        # to 1, so the disk route warns; the warning names no file.
        p = run_cli(*[a.format(seq=workdir / "square.json") for a in argv],
                    "--output", tmp_path / "out.csv")
        assert p.returncode == 0
        err = p.stderr.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"circlecomb {argv[0]}: RuntimeWarning: "
                                 "truncation tail bound")
        assert ".py" not in err[0]
        assert str(os.path.dirname(cli.__file__)) not in err[0]


# A valid value of each numeric catalog parameter.
SAMPLE = {"c": 3.25, "k": 3, "theta0": 0.8, "order": 2, "l_minus": -1.5,
          "l_plus": 2.25, "point": 0.3, "value": 7.5}
NUMERIC = [(name, key)
           for name, (_, table) in sorted(catalog._REGISTRY.items())
           for key, (parse, _) in table.items()
           if parse is not catalog._as_given]


class TestCatalogFlags:
    """The CLI hands catalog flags to `catalog.make` as strings, so the
    library's one rule parses both."""

    @pytest.mark.parametrize("name,key", NUMERIC,
                             ids=[f"{n}-{k}" for n, k in NUMERIC])
    def test_strings_parse_as_their_values(self, name, key):
        value = SAMPLE[key]
        ref = make(name, **{key: value})
        for text in (repr(value), repr(float(value))):
            ent = make(name, **{key: text})
            assert ent.params == ref.params
            seq, want = ent.coefficients(16), ref.coefficients(16)
            assert seq.generator == want.generator
            assert seq.a0 == want.a0
            assert np.array_equal(seq.a, want.a)
            assert np.array_equal(seq.b, want.b)

    def test_every_catalog_parameter_is_a_spectrum_flag(self):
        parser = cli._build_parser()
        for name, (_, table) in catalog._REGISTRY.items():
            for key in set(table) - {"base_params"}:
                args = parser.parse_args(
                    ["spectrum", f"--{key.replace('_', '-')}", "1"])
                assert getattr(args, key) == "1", (name, key)

    @pytest.mark.parametrize("name,key", NUMERIC,
                             ids=[f"{n}-{k}" for n, k in NUMERIC])
    def test_non_numeric_flags_exit_2_with_the_catalog_message(
            self, capsys, name, key):
        assert cli.main(["spectrum", "--catalog", name,
                         f"--{key.replace('_', '-')}", "abc"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"circlecomb spectrum: parameter {key} must be a "
                       "real number, got 'abc'\n")


class TestGridRoutesRunNoQuadrature:
    """Grid data is handled in closed form: its interpolant's
    coefficients and window averages never reach panel quadrature."""

    @pytest.fixture(autouse=True)
    def no_quadrature(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("panel quadrature ran on a grid route")
        monkeypatch.setattr(circlecomb._quad, "refine", refuse)

    @pytest.fixture
    def grids(self, tmp_path):
        th = grid_nodes(64)
        plain = tmp_path / "plain.csv"
        write_grid(plain, GridFunction(np.sign(th), np.ones(64, bool),
                                       singular_points=(0.0, -math.pi)))
        tagged = tmp_path / "tagged.csv"
        write_grid(tagged, GridFunction(np.cos(th), np.ones(64, bool),
                                        domain=(0.0, 10.0)))
        defined = np.ones(64, bool)
        defined[10] = False
        holey = tmp_path / "holey.csv"
        write_grid(holey, GridFunction(np.where(defined, np.cos(th), np.nan),
                                       defined))
        return {"plain": plain, "tagged": tagged, "holey": holey,
                "out": tmp_path / "out.csv"}

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--input", "{plain}", "--n", "100", "--output",
         "{out}"],
        ["classify", "--input", "{plain}", "--output", "{out}"],
        ["classify", "--input", "{tagged}", "--output", "{out}"],
        ["classify", "--input", "{holey}", "--output", "{out}"],
        ["comb", "--input", "{plain}", "--method", "filter-limit",
         "--output", "{out}"],
        ["comb", "--input", "{tagged}", "--method", "filter-limit",
         "--output", "{out}"],
        ["comb", "--input", "{plain}", "--method", "filter-limit",
         "--grid", "48", "--output", "{out}"],
        ["comb", "--input", "{holey}", "--method", "filter-limit",
         "--output", "{out}"],
        ["spectrum", "--input", "{tagged}", "--output", "{out}"],
        ["filter", "--input", "{plain}", "--eps", "0.3", "--output",
         "{out}"],
        ["filter", "--input", "{tagged}", "--eps", "0.3", "--output",
         "{out}"],
        ["comb", "--input", "{plain}", "--method", "fourier", "--output",
         "{out}"],
        ["comb", "--input", "{plain}", "--method", "disk", "--n", "64",
         "--rho-schedule", "0.6,0.65,0.7", "--output", "{out}"],
    ], ids=["spectrum", "classify", "classify-tagged", "classify-holey",
            "comb-filter-limit", "comb-filter-limit-tagged",
            "comb-filter-limit-regridded", "comb-filter-limit-holey",
            "spectrum-tagged", "filter", "filter-tagged", "comb-fourier",
            "comb-disk"])
    def test_grid_routes_succeed_without_quadrature(self, grids, argv):
        assert cli.main([a.format(**grids) for a in argv]) == 0
        assert grids["out"].exists()

    def test_a_grid_without_values_classifies_undefined(self, tmp_path):
        blank = tmp_path / "blank.csv"
        write_grid(blank, GridFunction(np.full(16, np.nan),
                                       np.zeros(16, bool)))
        report = tmp_path / "report.json"
        assert cli.main(["classify", "--input", str(blank),
                         "--output", str(report)]) == 0
        nodes = json.loads(report.read_text())["nodes"]
        assert len(nodes) == 16
        assert {node["verdict"] for node in nodes} == {"undefined"}

    @pytest.mark.parametrize("method", ["fourier", "disk"])
    def test_interval_grids_have_no_series(self, grids, capsys, method):
        assert cli.main(["comb", "--input", str(grids["tagged"]),
                         "--method", method,
                         "--output", str(grids["out"])]) == 3
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not grids["out"].exists()

    def test_grids_with_holes_have_no_series(self, grids, capsys):
        assert cli.main(["comb", "--input", str(grids["holey"]),
                         "--method", "fourier",
                         "--output", str(grids["out"])]) == 3
        assert "numeric failure" in capsys.readouterr().err
        assert not grids["out"].exists()


# --------------------------------------------------------- malformed files
# A well-formed 16-node grid CSV and a 3-term coefficient JSON, written by
# the package-free references; each test below breaks one thing in them.
GOOD_CSV_ROWS = [[format(float(t), ".17g"), format(math.cos(t), ".17g"), "1"]
                 for t in grid_nodes(16)]
GOOD_COEFFS = {"a0": 0.5, "n": 3,
               "terms": [{"k": 1, "a": 1.0, "b": -0.25},
                         {"k": 2, "a": 0.0, "b": 0.125},
                         {"k": 3, "a": 1e-3, "b": 0.0}]}
# Byte strings that are no UTF-8: a stray continuation byte, a lone
# lead byte, an overlong encoding and an encoded surrogate.
NOT_UTF8 = [b"\xff", b"\x80", b"\xc3(", b"\xc0\xaf", b"\xed\xa0\x80"]


def csv_bytes(rows, header="theta,value,defined"):
    return ("\n".join([header] + [",".join(r) for r in rows])
            + "\n").encode()


def insert(data: bytes, at: int, piece: bytes) -> bytes:
    at %= len(data) + 1
    return data[:at] + piece + data[at:]


def run_refused(files, argv):
    """Write `files` (name -> bytes) into a fresh directory, run the CLI
    in-process on `argv` with {name} placeholders filled in, and assert
    exit 2, one stderr line, no stdout and no output file."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in files.items():
            with open(os.path.join(tmp, name), "wb") as fh:
                fh.write(data)
        out = os.path.join(tmp, "out.csv")
        err, std = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(std):
            code = cli.main([a.format(dir=tmp) for a in argv]
                            + ["--output", out])
        assert code == 2, err.getvalue()
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()
        assert std.getvalue() == ""
        assert not os.path.exists(out)
        assert not os.path.exists(out + ".json")


FILTER_GRID = ["filter", "--input", "{dir}/g.csv", "--eps", "1.0"]
EVAL_JSON = ["eval", "--input", "{dir}/c.json", "--rho", "0.5", "--grid",
             "16"]

csv_tokens = {
    "theta": ["nan", "inf", "-inf", "1_0", "", "x", "0x1p-2", "\u0661",
              "1e", "--1", "0.1", "3.2"],
    "value": ["nan", "inf", "-inf", "1_0", "", "x", "1e", "--1",
              "\u0661\u0662", "1 2", '"1"', "1;2"],
    "defined": ["2", "-1", "1.0", "1e0", "true", "", "x", "1_0", "10",
                "99999999999999999999", "\u0661", "0.5"],
}


@st.composite
def malformed_csvs(draw):
    rows = [list(r) for r in GOOD_CSV_ROWS]
    kind = draw(st.sampled_from(["field", "count", "header", "rows",
                                 "bytes", "theta-all-nan", "off-grid"]))
    if kind == "field":
        column = draw(st.sampled_from(sorted(csv_tokens)))
        token = draw(st.sampled_from(csv_tokens[column]))
        i = draw(st.integers(0, len(rows) - 1))
        rows[i][("theta", "value", "defined").index(column)] = token
    elif kind == "count":
        i = draw(st.integers(0, len(rows) - 1))
        rows[i] = draw(st.sampled_from([rows[i][:2], rows[i][:1],
                                        rows[i] + ["0"], rows[i] + [""]]))
    elif kind == "header":
        header = draw(st.text(max_size=24).filter(
            lambda h: h.strip() != "theta,value,defined"
            and "\n" not in h and "\r" not in h))
        return csv_bytes(rows, header)
    elif kind == "rows":
        rows = rows[:draw(st.integers(0, 1))]
    elif kind == "bytes":
        data = csv_bytes(rows)
        return insert(data, draw(st.integers(0, len(data))),
                      draw(st.sampled_from(NOT_UTF8)))
    elif kind == "theta-all-nan":
        for r in rows:
            r[0] = "nan"
    else:
        i = draw(st.integers(0, len(rows) - 1))
        shift = draw(st.sampled_from([1e-6, -1e-8, 0.5]))
        rows[i][0] = format(float(rows[i][0]) + shift, ".17g")
    return csv_bytes(rows)


malformed_sidecars = st.one_of(
    st.sampled_from([
        b"[" * 5000,
        b'{"singular_points": [1' + b"0" * 5000 + b"]}",
        b'{"note": ',
        b"",
        b"[]",
        b'"x"',
        b'{"domain": [1]}',
        b'{"domain": [2, 1]}',
        b'{"domain": 3}',
        b'{"singular_points": [true]}',
        b'{"singular_points": [Infinity]}',
        b'{"singular_points": {"a": 1}}',
    ]),
    st.builds(lambda at, bad: insert(b'{"note": "grid"}', at, bad),
              st.integers(0, 16), st.sampled_from(NOT_UTF8)),
    # Any JSON value but an object.
    st.one_of(st.none(), st.booleans(), st.integers(),
              st.floats(allow_nan=False, allow_infinity=False), st.text(),
              st.lists(st.integers(), max_size=3)).map(
        lambda v: json.dumps(v).encode()),
)


def _replace_number(doc, path, value):
    doc = json.loads(json.dumps(doc))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


coefficient_number_paths = st.sampled_from(
    [("a0",), ("n",)] + [("terms", i, f) for i in range(3)
                         for f in ("k", "a", "b")])
non_numbers = st.one_of(st.none(), st.booleans(), st.text(max_size=4),
                        st.lists(st.integers(), max_size=2),
                        st.just({"x": 1}))


@st.composite
def malformed_coefficient_json(draw):
    good = reference_json(GOOD_COEFFS).encode()
    kind = draw(st.sampled_from(["type", "literal", "truncate", "bytes",
                                 "nesting", "digits", "count"]))
    if kind == "type":
        path = draw(coefficient_number_paths)
        doc = _replace_number(GOOD_COEFFS, path, draw(non_numbers))
        return reference_json(doc).encode()
    if kind == "literal":
        path = draw(coefficient_number_paths)
        literal = draw(st.sampled_from(["NaN", "Infinity", "-Infinity",
                                        "1e400", "1" + "0" * 400]))
        doc = _replace_number(GOOD_COEFFS, path, "@@")
        return reference_json(doc).replace('"@@"', literal).encode()
    if kind == "truncate":
        return good[:draw(st.integers(0, len(good) - 1))]
    if kind == "bytes":
        return insert(good, draw(st.integers(0, len(good))),
                      draw(st.sampled_from(NOT_UTF8)))
    if kind == "nesting":
        depth = draw(st.integers(2000, 20000))
        return b"[" * depth + b"]" * depth
    if kind == "digits":
        path = draw(coefficient_number_paths)
        doc = _replace_number(GOOD_COEFFS, path, "@@")
        digits = "1" * draw(st.integers(4301, 6000))
        return reference_json(doc).replace('"@@"', digits).encode()
    doc = json.loads(json.dumps(GOOD_COEFFS))
    doc["terms"] = doc["terms"][:draw(st.integers(0, 2))]
    return reference_json(doc).encode()


class TestDefaultsComeFromTheLibrary:
    """A flag left unset runs with the constant of the module that uses
    it, so the CLI and the library never disagree on a default."""

    @staticmethod
    def spy(monkeypatch, module, name):
        """Record each call's arguments, defaults filled in."""
        calls, real = [], getattr(module, name)

        def record(*args, **kwargs):
            bound = inspect.signature(real).bind(*args, **kwargs)
            bound.apply_defaults()
            calls.append(bound.arguments)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, record)
        return calls

    @pytest.fixture
    def inputs(self, tmp_path):
        write_grid(tmp_path / "cos.csv",
                   GridFunction(np.cos(grid_nodes(32)), np.ones(32, bool)))
        save_coefficients(tmp_path / "cos.json",
                          make("cosine", k=1).coefficients(8))
        return tmp_path

    def test_truncation_order(self, inputs, monkeypatch):
        parser = cli._build_parser()
        assert parser.parse_args(["spectrum", "--catalog", "cosine"]).n \
            == spectrum.DEFAULT_N
        calls = self.spy(monkeypatch, cli, "grid_coefficients")
        assert cli.main(["comb", "--input", str(inputs / "cos.csv"),
                         "--method", "fourier",
                         "--output", str(inputs / "f.csv")]) == 0
        assert calls[0]["n"] == spectrum.DEFAULT_N

    def test_classify_tolerance_and_schedule(self, inputs, monkeypatch):
        calls = self.spy(monkeypatch, classify, "classify_pointwise")
        assert cli.main(["classify", "--input", str(inputs / "cos.csv"),
                         "--output", str(inputs / "r.json")]) == 0
        assert calls[0]["tol"] == classify.DEFAULT_TOL
        assert calls[0]["eps_schedule"] == realfilter.DEFAULT_EPS_SCHEDULE

    def test_filter_limit_schedule(self, inputs, monkeypatch):
        calls = self.spy(monkeypatch, classify, "comb_by_filter_limit")
        assert cli.main(["comb", "--input", str(inputs / "cos.csv"),
                         "--method", "filter-limit",
                         "--output", str(inputs / "l.csv")]) == 0
        assert calls[0]["eps_schedule"] == realfilter.DEFAULT_EPS_SCHEDULE

    def test_disk_schedule(self, inputs, monkeypatch):
        calls = self.spy(monkeypatch, disk, "boundary_value_grid")
        assert cli.main(["comb", "--input", str(inputs / "cos.json"),
                         "--method", "disk",
                         "--output", str(inputs / "d.csv")]) == 0
        assert calls[0]["delta_schedule"] == disk.DEFAULT_DELTA_SCHEDULE


class TestMalformedFiles:
    """Every malformed grid CSV, sidecar and coefficient JSON exits 2
    with one stderr line, no traceback and no output file."""

    def test_the_unbroken_files_pass(self):
        with tempfile.TemporaryDirectory() as tmp:
            with open(os.path.join(tmp, "g.csv"), "wb") as fh:
                fh.write(csv_bytes(GOOD_CSV_ROWS))
            with open(os.path.join(tmp, "c.json"), "wb") as fh:
                fh.write(reference_json(GOOD_COEFFS).encode())
            for argv in (FILTER_GRID, EVAL_JSON):
                assert cli.main([a.format(dir=tmp) for a in argv]
                                + ["--output", f"{tmp}/out.csv"]) == 0

    @pytest.mark.parametrize("files, argv", [
        ({"g.csv": csv_bytes([["nan", r[1], r[2]] for r in GOOD_CSV_ROWS])},
         FILTER_GRID),
        ({"g.csv": csv_bytes([r[:2] + ["2"] for r in GOOD_CSV_ROWS])},
         FILTER_GRID),
        ({"g.csv": csv_bytes([r[:2] + ["-1"] for r in GOOD_CSV_ROWS])},
         FILTER_GRID),
        ({"g.csv": csv_bytes([[r[0], "1_0", r[2]] for r in GOOD_CSV_ROWS])},
         FILTER_GRID),
        ({"g.csv": insert(csv_bytes(GOOD_CSV_ROWS), 40, b"\xff")},
         FILTER_GRID),
        ({"g.csv": csv_bytes(GOOD_CSV_ROWS), "g.csv.json": b'{"\xff": 1}'},
         FILTER_GRID),
        ({"g.csv": csv_bytes(GOOD_CSV_ROWS),
          "g.csv.json": b'{"note": {"x": [1, 2]}}'}, FILTER_GRID),
        ({"c.json": insert(reference_json(GOOD_COEFFS).encode(), 8,
                           b"\xff")}, EVAL_JSON),
        ({"c.json": b"[" * 5000}, EVAL_JSON),
        ({"c.json": b'{"a0": ' + b"1" * 5000 + b', "n": 0, "terms": []}'},
         EVAL_JSON),
    ], ids=["theta-all-nan", "defined-2", "defined-minus-1",
            "value-digit-separator", "csv-not-utf8", "sidecar-not-utf8",
            "sidecar-note-not-a-string",
            "json-not-utf8", "json-nested-too-deep", "json-integer-digits"])
    def test_loose_reads_and_tracebacks_exit_2(self, files, argv):
        run_refused(files, argv)

    @settings(max_examples=150, deadline=None)
    @given(data=malformed_csvs())
    def test_malformed_grid_csvs_exit_2(self, data):
        run_refused({"g.csv": data}, FILTER_GRID)

    @settings(max_examples=100, deadline=None)
    @given(sidecar=malformed_sidecars)
    def test_malformed_sidecars_exit_2(self, sidecar):
        run_refused({"g.csv": csv_bytes(GOOD_CSV_ROWS),
                     "g.csv.json": sidecar}, FILTER_GRID)

    @settings(max_examples=150, deadline=None)
    @given(data=malformed_coefficient_json())
    def test_malformed_coefficient_json_exits_2(self, data):
        run_refused({"c.json": data}, EVAL_JSON)
