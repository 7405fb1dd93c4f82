"""Deterministic serialization: JSON coefficients, grid CSV, reports."""

import json
import math
import os
import tempfile
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circlecomb.catalog import make
from circlecomb.classify import (
    COMBED,
    JUMP_MIDPOINT_MISMATCH,
    RAGGED,
    RECOVERED,
    SPIKE_MISMATCH,
    UNDEFINED,
    ClassificationReport,
    NodeReport,
    certificate_report,
    classify_coefficients,
    classify_pointwise,
)
from circlecomb.errors import DomainError
from circlecomb.formats import (
    coefficients_from_doc,
    dumps_coefficients,
    dumps_json,
    dumps_report,
    load_coefficients,
    load_json,
    read_grid,
    save_coefficients,
    save_json,
    write_grid,
)
from circlecomb.realfilter import GridFunction
from circlecomb.spectrum import CoefficientSequence, grid_nodes
from conftest import reference_grid_csv, reference_json, reference_read_grid_rows

# Floats the formats must carry bit for bit: signed zeros, subnormals,
# the ends of the double range and two that need all 17 digits.
SPECIAL_FLOATS = (-0.0, 0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
                  1e300, -1e300, 1.7976931348623157e308, -1.7976931348623157e308,
                  0.1, 1 / 3)


def float_pool(rng, size=64):
    """SPECIAL_FLOATS plus random doubles over every binary exponent."""
    spread = rng.standard_normal(size) * 10.0 ** rng.uniform(-320, 300, size)
    return np.concatenate((SPECIAL_FLOATS, spread))


def drawn_grid(seed, n, hole_ratio):
    """An n-node grid drawn from `float_pool`, the special floats first,
    with about `hole_ratio` of its nodes undefined."""
    rng = np.random.default_rng(seed)
    pool = float_pool(rng)
    values = rng.choice(pool, n)
    k = min(n, len(SPECIAL_FLOATS))
    values[:k] = SPECIAL_FLOATS[:k]
    defined = rng.random(n) >= hole_ratio
    return GridFunction(np.where(defined, values, np.nan), defined)


class TestJsonWriter:
    def test_floats_carry_seventeen_digits(self):
        assert dumps_json(0.1) == "0.10000000000000001"
        assert float(dumps_json(math.pi)) == math.pi

    def test_ints_and_atoms(self):
        assert dumps_json({"n": 3, "ok": True, "gap": None, "s": "x"}) == \
            '{"n": 3, "ok": true, "gap": null, "s": "x"}'

    def test_key_order_is_insertion_order(self):
        assert dumps_json({"b": 1, "a": 2}) == '{"b": 1, "a": 2}'

    def test_output_is_deterministic(self):
        doc = {"xs": [0.1, 0.2, float(np.float64(1 / 3))], "tag": {"k": 7}}
        assert dumps_json(doc) == dumps_json(doc)

    def test_numpy_scalars_and_arrays_serialize(self):
        assert dumps_json(np.float64(0.5)) == "0.5"
        assert dumps_json(np.array([1.0, 2.0])) == "[1, 2]"
        assert dumps_json(np.int64(4)) == "4"

    def test_nan_and_inf_are_refused(self):
        with pytest.raises(DomainError, match="NaN"):
            dumps_json({"x": math.nan})
        with pytest.raises(DomainError, match="infinite"):
            dumps_json([math.inf])

    def test_non_string_keys_and_foreign_types_are_refused(self):
        with pytest.raises(DomainError, match="keys must be strings"):
            dumps_json({1: "x"})
        with pytest.raises(DomainError, match="cannot serialize"):
            dumps_json({"x": object()})

    def test_file_round_trip(self, tmp_path):
        doc = {"a0": 1 / 3, "terms": [{"k": 1, "a": 0.1, "b": -0.2}]}
        path = tmp_path / "doc.json"
        save_json(path, doc)
        assert load_json(path) == doc

    def test_a_refused_value_leaves_no_file(self, tmp_path):
        path = tmp_path / "doc.json"
        with pytest.raises(DomainError, match="NaN"):
            save_json(path, {"x": math.nan})
        assert not path.exists()

    def test_unparseable_files_are_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(DomainError, match="not valid JSON"):
            load_json(path)


class TestCoefficientDocuments:
    def test_doc_shape(self):
        seq = CoefficientSequence(0.5, [1.0, 0.0], [0.25, -1.0])
        doc = json.loads(dumps_coefficients(seq))
        assert doc == {"a0": 0.5, "n": 2,
                       "terms": [{"k": 1, "a": 1.0, "b": 0.25},
                                 {"k": 2, "a": 0.0, "b": -1.0}]}

    def test_round_trip_is_bit_identical(self, rng):
        seq = CoefficientSequence(rng.standard_normal(),
                                  rng.standard_normal(12),
                                  rng.standard_normal(12))
        back = coefficients_from_doc(json.loads(dumps_coefficients(seq)))
        assert back.a0 == seq.a0
        assert np.array_equal(back.a, seq.a)
        assert np.array_equal(back.b, seq.b)
        assert back.generator is None

    def test_generator_tag_survives(self):
        seq = make("step", theta0=0.5, l_minus=-1.0,
                   l_plus=2.0).coefficients(8)
        back = coefficients_from_doc(json.loads(dumps_coefficients(seq)))
        assert back.generator == seq.generator

    def test_file_round_trip_is_bit_identical(self, tmp_path, rng):
        seq = CoefficientSequence(1 / 3, rng.standard_normal(9),
                                  rng.standard_normal(9))
        path = tmp_path / "seq.json"
        save_coefficients(path, seq)
        back = load_coefficients(path)
        assert back.a0 == seq.a0
        assert np.array_equal(back.a, seq.a)
        assert np.array_equal(back.b, seq.b)

    def test_rewrites_are_byte_identical(self, tmp_path, rng):
        seq = CoefficientSequence(0.1, rng.standard_normal(5),
                                  rng.standard_normal(5))
        p1, p2 = tmp_path / "one.json", tmp_path / "two.json"
        save_coefficients(p1, seq)
        save_coefficients(p2, load_coefficients(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_malformed_documents_are_rejected(self):
        good = json.loads(dumps_coefficients(
            CoefficientSequence(0.0, [1.0], [2.0])))
        bad_docs = [
            "not a dict",
            {},
            {"a0": 0.0, "n": 2, "terms": good["terms"]},
            {"a0": 0.0, "n": 1,
             "terms": [{"k": 2, "a": 0.0, "b": 0.0}]},
            {"a0": 0.0, "n": 1, "terms": [{"k": 1, "a": 0.0}]},
            {"a0": math.nan, "n": 1, "terms": good["terms"]},
            {"a0": 0.0, "n": 1, "terms": good["terms"], "generator": 5},
        ]
        for doc in bad_docs:
            with pytest.raises(DomainError):
                coefficients_from_doc(doc)


class TestGridFiles:
    def sample_grid(self):
        th = grid_nodes(16)
        values = np.cos(th)
        defined = np.ones(16, dtype=bool)
        values[3] = np.nan
        defined[3] = False
        return GridFunction(values, defined,
                            singular_points=(0.5, -math.pi),
                            note="unit test grid")

    def test_csv_layout(self, tmp_path):
        path = tmp_path / "grid.csv"
        write_grid(path, self.sample_grid())
        lines = path.read_text().splitlines()
        assert lines[0] == "theta,value,defined"
        assert len(lines) == 17
        assert lines[4].endswith(",nan,0")
        assert all(ln.endswith(",1") for i, ln in enumerate(lines[1:])
                   if i != 3)

    def test_round_trip_is_bit_identical(self, tmp_path):
        grid = self.sample_grid()
        path = tmp_path / "grid.csv"
        write_grid(path, grid)
        back = read_grid(path)
        assert back.domain is None
        assert np.array_equal(back.defined, grid.defined)
        assert np.array_equal(back.values[back.defined],
                              grid.values[grid.defined])
        assert back.singular_points == grid.singular_points
        assert back.note == grid.note

    def test_domain_tag_round_trips(self, tmp_path):
        path = tmp_path / "grid.csv"
        write_grid(path, replace(self.sample_grid(), domain=(0.0, 10.0)))
        assert read_grid(path).domain == (0.0, 10.0)

    def test_sidecar_is_optional(self, tmp_path):
        path = tmp_path / "grid.csv"
        write_grid(path, self.sample_grid())
        (tmp_path / "grid.csv.json").unlink()
        back = read_grid(path)
        assert back.singular_points == ()
        assert back.note == ""
        assert back.domain is None

    def test_rewrites_are_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_grid(p1, replace(self.sample_grid(), domain=(0.0, 10.0)))
        write_grid(p2, read_grid(p1))
        assert p1.read_bytes() == p2.read_bytes()
        assert (tmp_path / "a.csv.json").read_bytes() == \
            (tmp_path / "b.csv.json").read_bytes()

    def test_bad_files_are_rejected(self, tmp_path):
        cases = {
            "noheader.csv": "x,y\n0,1,1\n",
            "short.csv": "theta,value,defined\n0,1,1\n",
            "fields.csv": "theta,value,defined\n0,1\n0.5,1\n",
            "orphan.csv": "theta,value,defined\n0,1,1\n0.1,1,1\n",
            "badnum.csv": "theta,value,defined\n-1.5707,x,1\n1.5707,1,1\n",
        }
        for name, text in cases.items():
            path = tmp_path / name
            path.write_text(text)
            with pytest.raises(DomainError):
                read_grid(path)

    @pytest.mark.parametrize("cells,message", [
        ("t,x,1", "'x' to float64 at row 4, column 2."),
        ("t,0.5,2", "row 4: defined must be 0 or 1, got 2"),
        ("t,x,2", "'x' to float64 at row 4, column 2."),
        ("t,0.5,1.0", "'1.0' to int64 at row 4, column 3."),
        ("t,0.5", "found at row 4;")],
        ids=["value", "flag", "value-and-flag", "flag-not-integer",
             "missing-column"])
    def test_messages_count_rows_from_one(self, tmp_path, cells, message):
        # The fault is on the fourth row of the body; the empty line
        # before it is not counted.  The parser's messages and the
        # flag check name it alike.
        thetas = [repr(t) for t in grid_nodes(6).tolist()]
        rows = [t + ",0.5,1" for t in thetas]
        rows[3] = cells.replace("t", thetas[3])
        path = tmp_path / "g.csv"
        path.write_text("theta,value,defined\n" + rows[0] + "\n\n"
                        + "\n".join(rows[1:]) + "\n")
        with pytest.raises(DomainError) as exc:
            read_grid(path)
        assert message in str(exc.value)

    def test_defined_values_must_be_finite(self, tmp_path):
        th = grid_nodes(2)
        path = tmp_path / "nanrow.csv"
        path.write_text("theta,value,defined\n"
                        f"{float(th[0])},nan,1\n{float(th[1])},1,1\n")
        with pytest.raises(DomainError, match="non-finite"):
            read_grid(path)

    def test_non_finite_defined_values_never_reach_the_writer(self):
        # The container itself refuses them, so no file can be born
        # with an inf or NaN marked as defined.
        values = np.array([math.inf, 0.0])
        with pytest.raises(DomainError, match="finite"):
            GridFunction(values, np.ones(2, dtype=bool))
        # Nor a sidecar that would be refused after its CSV is written.
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError, match="singular points must be "
                                                  "finite"):
                GridFunction(np.zeros(2), np.ones(2, dtype=bool),
                             singular_points=(0.5, bad))


class TestReportDocuments:
    def test_pointwise_report_schema(self):
        report = classify_pointwise(make("cosine", k=1).evaluator, n_grid=16)
        doc = json.loads(dumps_report(report))
        assert set(doc) == {"overall", "params", "nodes"}
        assert doc["overall"] == "combed"
        assert doc["params"]["method"] == "pointwise"
        assert len(doc["nodes"]) == 16
        node = doc["nodes"][0]
        assert set(node) == {"theta", "verdict", "value", "residual"}
        # `%.17g` writes 1.0 as 1, which json.loads reads as an int.
        assert type(node["value"]) in (int, float)
        assert type(node["residual"]) in (int, float)
        # the whole document serializes deterministically
        assert dumps_report(report) == dumps_report(report)

    def test_certificate_report_serializes(self):
        report = certificate_report(
            classify_coefficients(make("cosine", k=2).coefficients(8)))
        text = dumps_report(report)
        doc = json.loads(text)
        assert doc["nodes"] == []
        assert doc["params"]["method"] == "coefficients"
        assert '"overall": "combed"' in text

    def test_undefined_nodes_serialize_as_null(self):
        th = grid_nodes(64)
        defined = np.abs(th - 1.5) > 0.5
        values = np.where(defined, np.cos(th), np.nan)
        from circlecomb.realfilter import grid_evaluator
        report = classify_pointwise(grid_evaluator(
            GridFunction(values, defined)), n_grid=16)
        text = dumps_report(report)
        holes = [n for n in json.loads(text)["nodes"]
                 if n["verdict"] == "undefined"]
        assert holes
        assert all(n["value"] is None and n["residual"] is None
                   for n in holes)
        assert "null" in text


finite_floats = st.floats(allow_nan=False, allow_infinity=False)
# Column strategies for record lists, which `dumps_json` writes element
# by element whether their columns are homogeneous or mixed.
record_columns = st.sampled_from([
    st.integers(-2 ** 70, 2 ** 70),
    finite_floats,
    st.none() | finite_floats,
    st.none(),
    st.text(max_size=6),
    st.sampled_from(["combed", "ragged", "undefined"]),
    st.booleans(),
    st.none() | st.booleans() | st.integers() | finite_floats | st.text(),
    st.lists(finite_floats, max_size=2),
])


# Report cells: the special floats, None, and every verdict.
report_floats = st.sampled_from(SPECIAL_FLOATS) | finite_floats
verdicts = st.sampled_from([RECOVERED, SPIKE_MISMATCH, JUMP_MIDPOINT_MISMATCH,
                            UNDEFINED])


@st.composite
def reports(draw):
    nodes = draw(st.lists(st.builds(
        NodeReport, report_floats, verdicts, st.none() | report_floats,
        st.none() | report_floats), max_size=40))
    params = draw(st.fixed_dictionaries(
        {"method": st.sampled_from(["pointwise", "coefficients"]),
         "eps_schedule": st.lists(report_floats, max_size=4),
         "tol": report_floats}))
    return ClassificationReport(draw(st.sampled_from([COMBED, RAGGED])),
                                params, tuple(nodes))


@st.composite
def record_lists(draw):
    keys = draw(st.lists(st.text(max_size=4), min_size=1, max_size=4,
                         unique=True))
    record = st.fixed_dictionaries({k: draw(record_columns) for k in keys})
    return draw(st.lists(record, max_size=30))


class TestColumnWiseFormats:
    """The writers of the three large bodies (grid rows, coefficient
    terms, report nodes) give the bytes of the element-wise reference in
    conftest, as `dumps_json` does, and the reader gives its arrays."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 3000),
           hole_ratio=st.sampled_from([0.0, 0.2, 0.9, 1.0]))
    @example(seed=0, n=2, hole_ratio=0.0)
    @example(seed=1, n=len(SPECIAL_FLOATS), hole_ratio=0.0)
    @example(seed=2, n=3000, hole_ratio=0.5)
    def test_grid_csv_matches_the_row_reference(self, seed, n, hole_ratio):
        grid = drawn_grid(seed, n, hole_ratio)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "g.csv")
            write_grid(path, grid)
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            back = read_grid(path)
        assert text == reference_grid_csv(grid.thetas(), grid.values,
                                          grid.defined)
        thetas, values, defined = reference_read_grid_rows(text)
        assert back.domain is None
        assert np.array_equal(thetas, grid_nodes(n))
        assert np.array_equal(back.defined, defined)
        # Bitwise on defined nodes, so -0.0 and subnormals count.
        assert np.array_equal(back.values[defined].view(np.int64),
                              values[defined].view(np.int64))
        assert np.all(np.isnan(back.values[~defined]))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(0, 3000),
           tagged=st.booleans())
    @example(seed=0, n=0, tagged=False)
    @example(seed=1, n=len(SPECIAL_FLOATS), tagged=True)
    def test_coefficient_json_matches_the_element_reference(self, seed, n,
                                                            tagged):
        rng = np.random.default_rng(seed)
        pool = float_pool(rng)
        a = rng.choice(pool, n)
        a[:len(SPECIAL_FLOATS)] = SPECIAL_FLOATS[:n]
        generator = {"name": "step", "params": {
            "theta0": float(rng.choice(pool)), "l_minus": -1}} \
            if tagged else None
        seq = CoefficientSequence(float(rng.choice(pool)), a,
                                  rng.choice(pool, n), generator=generator)
        doc = {"a0": seq.a0, "n": n,
               "terms": [{"k": k, "a": ak, "b": bk} for k, ak, bk in
                         zip(range(1, n + 1), seq.a.tolist(), seq.b.tolist())]}
        if tagged:
            doc["generator"] = generator
        assert dumps_coefficients(seq) == reference_json(doc)

    @settings(max_examples=60, deadline=None)
    @given(report=reports())
    @example(report=ClassificationReport(COMBED, {}, ()))
    @example(report=ClassificationReport(RAGGED, {"tol": -0.0}, (
        NodeReport(-0.0, UNDEFINED, None, None),
        NodeReport(5e-324, RECOVERED, -1.7976931348623157e308, 0.0),
        NodeReport(1.7976931348623157e308, SPIKE_MISMATCH, None, None))))
    def test_report_json_matches_the_element_reference(self, report):
        doc = {"overall": report.overall, "params": report.params,
               "nodes": [{"theta": n.theta, "verdict": n.verdict,
                          "value": n.value, "residual": n.residual}
                         for n in report.nodes]}
        assert dumps_report(report) == reference_json(doc)

    @settings(max_examples=100, deadline=None)
    @given(records=record_lists())
    @example(records=[{"a%d": 1, 'q"%s': "x%"}, {"a%d": 2, 'q"%s': "%%"}])
    @example(records=[{"theta": 0.5, "verdict": "undefined", "value": None,
                       "residual": None},
                      {"theta": -0.0, "verdict": "combed", "value": 5e-324,
                       "residual": 1e300}])
    @example(records=[{"k": 1}, {"j": 2}])
    @example(records=[{"k": 1, "a": 2.0}, {"a": 2.0, "k": 1}])
    def test_record_lists_match_the_element_reference(self, records):
        doc = {"overall": "ragged", "nodes": records}
        assert dumps_json(doc) == reference_json(doc)
        assert dumps_json(records) == reference_json(records)

    @pytest.mark.parametrize("bad, message", [
        (math.nan, "NaN"), (math.inf, "infinite"), (-math.inf, "infinite")])
    def test_record_columns_refuse_non_finite_floats(self, bad, message):
        terms = [{"k": 1, "a": 0.5, "b": 0.0}, {"k": 2, "a": bad, "b": 0.0}]
        with pytest.raises(DomainError, match=message):
            dumps_json({"terms": terms})
        nodes = [{"value": None}, {"value": 1.0}, {"value": bad}]
        with pytest.raises(DomainError, match=message):
            dumps_json({"nodes": nodes})


    def test_write_and_read_peaks_stay_below_the_row_loops(self, tmp_path):
        # Traced peaks of the row-at-a-time writer and reader on a grid of
        # this size: 23.9 MB to write, 18.6 MB to read.  The column-wise
        # ones hold the thetas and one chunk of rows (write) or the
        # parsed rows (read).
        grid = drawn_grid(11, 131072, 0.1)
        path = tmp_path / "g.csv"
        tracemalloc.start()
        try:
            write_grid(path, grid)
            _, write_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            read_grid(path)
            _, read_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert write_peak < 23.9e6, f"write_grid traced peak {write_peak}"
        assert read_peak < 18.6e6, f"read_grid traced peak {read_peak}"


    def test_a_million_node_write_peaks_below_two_and_a_half_files(
            self, tmp_path):
        # The body streams to the file a chunk at a time, so the peak,
        # building the grid included, is about half the file.
        n = 1 << 20
        defined = np.arange(n) % 7 != 0
        values = np.where(defined, np.cos(3.0 * grid_nodes(n)), np.nan)
        path = tmp_path / "g.csv"
        tracemalloc.start()
        try:
            write_grid(path, GridFunction(values, defined))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert peak < 2.5 * size, f"traced peak {peak} for {size} bytes"


def _fast_path_edges(rng):
    """Finite doubles at the edges of the grid writer's numpy path, each
    with both signs."""
    powers = np.array([float(f"1e{k}") for k in range(-30, 19)])
    odd = 2 * rng.integers(2 * 10 ** 15, 45 * 10 ** 14, 2000) + 1
    # Random mantissas under binary exponents that span [1e-28, 1e17):
    # the numpy window [1e-6, 1e17) and the slow cells below it.
    exponents = rng.integers(-93, 57, 4000) + 1023
    bits = (exponents << 52) | rng.integers(0, 1 << 52, 4000)
    switches = np.concatenate([
        10.0 ** rng.uniform(lo, hi, 500)
        for lo, hi in ((-7.5, -3.5), (15.5, 17.5))])
    cells = np.concatenate([
        np.nextafter(powers, 0.0), powers, np.nextafter(powers, np.inf),
        [9.9999999999999995e-07, 1e-5, 1e-4, 1e16, 1e17],
        odd / 4.0,                                  # exact 17th-digit ties
        rng.integers(2 ** 53, 2 ** 62, 2000).astype(float),
        switches, bits.view(np.float64)])
    return np.concatenate([cells, -cells])


def test_grid_cells_at_the_fast_path_edges_match_the_reference(tmp_path):
    values = _fast_path_edges(np.random.default_rng(19))
    defined = np.ones(values.size, bool)
    grid = GridFunction(values, defined)
    path = tmp_path / "edges.csv"
    write_grid(path, grid)
    assert path.read_text(encoding="utf-8") == reference_grid_csv(
        grid.thetas(), values, defined)


class TestGridReadsTakeTheFastPath:
    """Grid CSVs are parsed column-wise in one pass."""

    @pytest.mark.parametrize("domain", [None, (0.0, 10.0)],
                             ids=["plain", "domain-tagged"])
    def test_written_grids_read_back_without_the_row_loop(self, tmp_path,
                                                          domain):
        grid = drawn_grid(7, 65536, 0.1)
        path = tmp_path / "g.csv"
        write_grid(path, replace(grid, domain=domain))
        back = read_grid(path)
        assert back.domain == domain
        assert np.array_equal(back.defined, grid.defined)
        assert np.array_equal(back.values, grid.values, equal_nan=True)
