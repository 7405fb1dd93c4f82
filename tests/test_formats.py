"""Deterministic serialization: JSON coefficients, grid CSV, reports."""

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
from circlecomb.classify import certificate_report, classify_coefficients, classify_pointwise
from circlecomb.errors import DomainError
from circlecomb.formats import (
    coefficients_from_doc,
    coefficients_to_doc,
    dumps_json,
    load_coefficients,
    load_json,
    read_grid,
    report_to_doc,
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

    def test_unparseable_files_are_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(DomainError, match="not valid JSON"):
            load_json(path)


class TestCoefficientDocuments:
    def test_doc_shape(self):
        seq = CoefficientSequence(0.5, [1.0, 0.0], [0.25, -1.0])
        doc = coefficients_to_doc(seq)
        assert doc == {"a0": 0.5, "n": 2,
                       "terms": [{"k": 1, "a": 1.0, "b": 0.25},
                                 {"k": 2, "a": 0.0, "b": -1.0}]}

    def test_round_trip_is_bit_identical(self, rng):
        seq = CoefficientSequence(rng.standard_normal(),
                                  rng.standard_normal(12),
                                  rng.standard_normal(12))
        back = coefficients_from_doc(coefficients_to_doc(seq))
        assert back.a0 == seq.a0
        assert np.array_equal(back.a, seq.a)
        assert np.array_equal(back.b, seq.b)
        assert back.generator is None

    def test_generator_tag_survives(self):
        seq = make("step", theta0=0.5, l_minus=-1.0,
                   l_plus=2.0).coefficients(8)
        back = coefficients_from_doc(coefficients_to_doc(seq))
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
        good = coefficients_to_doc(CoefficientSequence(0.0, [1.0], [2.0]))
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


class TestReportDocuments:
    def test_pointwise_report_schema(self):
        report = classify_pointwise(make("cosine", k=1).evaluator, n_grid=16)
        doc = report_to_doc(report)
        assert set(doc) == {"overall", "params", "nodes"}
        assert doc["overall"] == "combed"
        assert doc["params"]["method"] == "pointwise"
        assert len(doc["nodes"]) == 16
        node = doc["nodes"][0]
        assert set(node) == {"theta", "verdict", "value", "residual"}
        assert isinstance(node["value"], float)
        assert isinstance(node["residual"], float)
        # the whole document serializes deterministically
        assert dumps_json(doc) == dumps_json(report_to_doc(report))

    def test_certificate_report_serializes(self):
        report = certificate_report(
            classify_coefficients(make("cosine", k=2).coefficients(8)))
        doc = report_to_doc(report)
        assert doc["nodes"] == []
        assert doc["params"]["method"] == "coefficients"
        text = dumps_json(doc)
        assert '"overall": "combed"' in text

    def test_undefined_nodes_serialize_as_null(self):
        th = grid_nodes(64)
        defined = np.abs(th - 1.5) > 0.5
        values = np.where(defined, np.cos(th), np.nan)
        from circlecomb.realfilter import grid_evaluator
        report = classify_pointwise(grid_evaluator(
            GridFunction(values, defined)), n_grid=16)
        doc = report_to_doc(report)
        holes = [n for n in doc["nodes"] if n["verdict"] == "undefined"]
        assert holes
        assert all(n["value"] is None and n["residual"] is None
                   for n in holes)
        assert "null" in dumps_json(doc)


finite_floats = st.floats(allow_nan=False, allow_infinity=False)
# Column strategies for record lists: homogeneous columns take the
# column-wise writer, mixed ones the element-wise path.
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


@st.composite
def record_lists(draw):
    keys = draw(st.lists(st.text(max_size=4), min_size=1, max_size=4,
                         unique=True))
    record = st.fixed_dictionaries({k: draw(record_columns) for k in keys})
    return draw(st.lists(record, max_size=30))


class TestColumnWiseFormats:
    """The column-wise writers give the bytes of the element-wise
    reference in conftest, and the reader gives its arrays."""

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
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(0, 3000))
    @example(seed=0, n=0)
    @example(seed=1, n=len(SPECIAL_FLOATS))
    def test_coefficient_json_matches_the_element_reference(self, seed, n):
        rng = np.random.default_rng(seed)
        pool = float_pool(rng)
        a = rng.choice(pool, n)
        a[:len(SPECIAL_FLOATS)] = SPECIAL_FLOATS[:n]
        seq = CoefficientSequence(float(rng.choice(pool)), a,
                                  rng.choice(pool, n))
        doc = coefficients_to_doc(seq)
        assert dumps_json(doc) == reference_json(doc)

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
        # ones hold the body text and one tuple of cells (write) or the
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
