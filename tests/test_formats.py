"""Deterministic serialization: JSON coefficients, grid CSV, reports."""

import json
import math
import os
import stat
import tempfile
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circlecomb import _gridrows, classify, formats
from circlecomb.catalog import make
from circlecomb.classify import (
    COMBED,
    JUMP_MIDPOINT_MISMATCH,
    RAGGED,
    RECOVERED,
    SPIKE_MISMATCH,
    UNDEFINED,
    ClassificationReport,
    certificate_report,
    classify_coefficients,
    classify_pointwise,
)
from circlecomb.errors import DomainError
from circlecomb.formats import (
    coefficient_chunks,
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
from test_cli import malformed_coefficient_json

# Floats the formats must carry bit for bit: signed zeros, subnormals,
# the ends of the double range and two that need all 17 digits.
SPECIAL_FLOATS = (-0.0, 0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
                  1e300, -1e300, 1.7976931348623157e308, -1.7976931348623157e308,
                  0.1, 1 / 3)


# Floats drawn with signed zeros often.
SIGNED = st.sampled_from([-0.0, 0.0]) | st.floats(allow_nan=False,
                                                  allow_infinity=False)


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


def raised(run) -> str:
    """The message of what `run()` raises: the interpreter's own text,
    which differs between Python versions."""
    try:
        run()
    except Exception as exc:
        return str(exc)
    raise AssertionError("nothing raised")


GOOD_TERM = {"k": 1, "a": 1.0, "b": 2.0}


def one_term(term, **root):
    return {"a0": 0.0, "n": 1, "terms": [term], **root}


def not_subscriptable(term) -> str:
    return "malformed term 0: " + raised(lambda: term["k"])


# Every refusal of a parsed coefficient document, with its exact text.
REFUSED = {
    "not-an-object": ("not a dict",
                      "coefficient document must be a JSON object"),
    "missing-key": ({}, "malformed coefficient document: missing 'a0'"),
    "n-not-an-integer": ({"a0": 0.0, "n": 1.0, "terms": [GOOD_TERM]},
                         "malformed coefficient document: n must be an "
                         "integer and a0 a number"),
    "a0-a-string": ({"a0": "0", "n": 1, "terms": [GOOD_TERM]},
                    "malformed coefficient document: n must be an "
                    "integer and a0 a number"),
    "count-above": ({"a0": 0.0, "n": 2, "terms": [GOOD_TERM]},
                    "expected 2 terms, found 1"),
    "count-below": ({"a0": 0.0, "n": 1, "terms": [GOOD_TERM] * 2},
                    "expected 1 terms, found 2"),
    "terms-not-a-list": ({"a0": 0.0, "n": 1, "terms": {"k": 1}},
                         "expected 1 terms, found none"),
    "k-not-one": (one_term({"k": 2, "a": 0.0, "b": 0.0}),
                  "terms must be dense over k = 1..1; term 0 has k=2"),
    "k-out-of-order": ({"a0": 0.0, "n": 3, "terms": [
        GOOD_TERM, {"k": 3, "a": 0.0, "b": 0.0},
        {"k": 2, "a": 0.0, "b": 0.0}]},
        "terms must be dense over k = 1..3; term 1 has k=3"),
    "k-a-float": (one_term({"k": 1.0, "a": 0.0, "b": 0.0}),
                  "malformed term 0: k must be an integer, a and b numbers"),
    "a-a-bool": (one_term({"k": 1, "a": True, "b": 0.0}),
                 "malformed term 0: k must be an integer, a and b numbers"),
    "b-null": (one_term({"k": 1, "a": 0.0, "b": None}),
               "malformed term 0: k must be an integer, a and b numbers"),
    "missing-b": (one_term({"k": 1, "a": 0.0}), "malformed term 0: 'b'"),
    "term-a-list": (one_term([1]), not_subscriptable([1])),
    "term-a-string": (one_term("x"), not_subscriptable("x")),
    "term-null": (one_term(None), not_subscriptable(None)),
    "a0-nan": ({"a0": math.nan, "n": 1, "terms": [GOOD_TERM]},
               "coefficients must be finite"),
    "b-infinite": (one_term({"k": 1, "a": 0.0, "b": -math.inf}),
                   "coefficients must be finite"),
    "a-past-the-float-range": (one_term({"k": 1, "a": 10 ** 400, "b": 0}),
                               "coefficients must be finite"),
    "a0-past-the-float-range": ({"a0": -10 ** 309, "n": 0, "terms": []},
                                "coefficients must be finite"),
    "generator-a-number": (one_term(GOOD_TERM, generator=5),
                           "generator tag must be an object"),
    "generator-a-list": (one_term(GOOD_TERM, generator=[]),
                         "generator tag must be an object"),
}


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

    @settings(max_examples=40, deadline=None)
    @given(a0=SIGNED, cells=st.lists(st.tuples(SIGNED, SIGNED), max_size=40),
           theta0=SIGNED)
    @example(a0=-0.0, cells=[(-0.0, -0.0)] * 4097, theta0=-0.0)
    def test_signed_zeros_survive_a_round_trip(self, a0, cells, theta0):
        # JSON reads "-0" as the integer 0, so -0.0 is written "-0.0".
        a, b = np.array(cells, dtype=float).reshape(-1, 2).T
        seq = CoefficientSequence(a0, a, b, generator={
            "name": "step", "params": {"theta0": theta0}})
        with tempfile.TemporaryDirectory() as tmp:
            one, two = os.path.join(tmp, "one.json"), \
                os.path.join(tmp, "two.json")
            save_coefficients(one, seq)
            back = load_coefficients(one)
            save_coefficients(two, back)
            with open(one, "rb") as f1, open(two, "rb") as f2:
                assert f1.read() == f2.read()
        assert np.float64(back.a0).tobytes() == np.float64(a0).tobytes()
        assert back.a.tobytes() == seq.a.tobytes()
        assert back.b.tobytes() == seq.b.tobytes()
        assert math.copysign(1.0, back.generator["params"]["theta0"]) \
            == math.copysign(1.0, theta0)

    def test_malformed_documents_are_rejected(self, tmp_path):
        # The same text from the document and from its file, whichever
        # way the file is parsed.
        path = tmp_path / "c.json"
        for case, (doc, message) in REFUSED.items():
            path.write_text(json.dumps(doc), encoding="utf-8")
            for read in (lambda: coefficients_from_doc(doc),
                         lambda: load_coefficients(path)):
                with pytest.raises(DomainError) as info:
                    read()
                assert str(info.value) == message, case

    @pytest.mark.parametrize("text", [
        '{"a0": 0.0 "n": 1, "terms": [{"k": 1, "a": 1, "b": 2}]}',
        '{"a0": 0.0, "n": 1, "terms": [{"k": 1, "a": 1, "b": 2}],}',
        '{"a0": 0.0, "n": 2, "terms": [{"k": 1, "a": 1, "b": 2} '
        '{"k": 2, "a": 1, "b": 2}]}',
        '{"a0": 0.0, "n": 2, "terms": [{"k": 1, "a": 1, "b": 2}; '
        '{"k": 2, "a": 1, "b": 2}]}',
        '{"a0": 0.0, "n": 1, "terms": [{"k": 1, "a": 1, "b": 2},]}',
        '{"a0": 0.0, "n": 1, "terms": [{"k": 1, "a": 1, "b": 2}',
        '{"a0": 0.0, "n": 0, "terms": []} []',
        "[" * 5000,
        '{"a0": 0.0, "n": 1, "terms": [' + "[" * 5000,
    ], ids=["root-missing-comma", "root-trailing-comma",
            "terms-missing-comma", "terms-semicolon", "terms-trailing-comma",
            "truncated", "extra-data", "nested-root", "nested-term"])
    def test_unparseable_files_keep_the_parser_message(self, tmp_path,
                                                       text):
        path = tmp_path / "c.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DomainError) as info:
            load_coefficients(path)
        assert str(info.value) == \
            f"{path}: not valid JSON: {raised(lambda: json.loads(text))}"


# JSON whitespace, and number literals besides those `repr` writes: a
# signed integer zero, exponents in either case, and values that round
# to infinity or to zero.
json_space = st.text(alphabet=" \t\n\r", max_size=2)
json_numbers = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-2 ** 70, 2 ** 70).map(str),
    st.sampled_from(["-0", "-0.0", "1E5", "2.5e-3", "1e308", "-1e308",
                     "5e-324", "1e400", "-1e-400", "1" + "0" * 309]))


@st.composite
def valid_coefficient_json(draw):
    """Coefficient JSON the package does not write but must read alike:
    any whitespace, any key order, a duplicate "terms" key (the last one
    counts), extra keys, integer and special numbers, and a generator
    tag."""
    def obj(pairs):
        pairs = draw(st.permutations(pairs))
        return "{" + ",".join(f"{draw(json_space)}{json.dumps(key)}"
                              f"{draw(json_space)}:{draw(json_space)}"
                              f"{value}{draw(json_space)}"
                              for key, value in pairs) + "}"

    def array(items):
        return "[" + draw(json_space) + ",".join(
            f"{draw(json_space)}{item}{draw(json_space)}"
            for item in items) + "]"

    n = draw(st.integers(0, 5))
    terms = [obj([("k", str(k)), ("a", draw(json_numbers)),
                  ("b", draw(json_numbers))]
                 + draw(st.sampled_from([[], [("note", '"}, {"')]])))
             for k in range(1, n + 1)]
    root = [("a0", draw(json_numbers)), ("n", str(n)),
            ("terms", array(terms))]
    if draw(st.booleans()):
        root.append(("generator", '{"name": "step", "params": '
                     '{"theta0": 0.5, "xs": [1, 2]}}'))
    text = obj(root)
    if draw(st.booleans()):
        # A "terms" key before the one that counts.
        early = draw(st.sampled_from(['[]', '[1, 2]', '{"k": 1}',
                                      '[{"k": 1, "a": 0, "b": 0}]']))
        text = '{"terms": ' + early + ", " + text[1:]
    return draw(json_space) + text + draw(json_space)


def read_outcome(read):
    """What `read()` gives, bitwise: the sequence's floats and tag, or
    the DomainError's message."""
    try:
        seq = read()
    except DomainError as exc:
        return str(exc)
    return (np.float64(seq.a0).tobytes(), seq.a.tobytes(), seq.b.tobytes(),
            seq.generator)


class TestCoefficientReads:
    """`load_coefficients` reads the terms of a document into columns,
    and gives what the whole-document read gives on every file."""

    # Term-like objects outside "terms": in the generator before and
    # after them, the root itself, an array under another key, an earlier
    # "terms" key, and one inside a term.
    @settings(max_examples=300, deadline=None)
    @given(text=valid_coefficient_json())
    @example(text='{"a0": -0.0, "n": 1, "terms": [{"k": 1, "a": -0, '
                  '"b": 1e308}]}')
    @example(text='{"a0": 1, "n": 1, "generator": {"name": "step", "params": '
                  '{"k": 1, "a": 0, "b": 0}}, "terms": [{"k": 1, "a": 2, '
                  '"b": 3}]}')
    @example(text='{"a0": 1, "n": 1, "terms": [{"k": 1, "a": 2, "b": 3}], '
                  '"generator": {"name": "step", "params": {"k": 2, "a": 0, '
                  '"b": 0}}}')
    @example(text='{"k": 1, "a": 0, "b": 0, "a0": 1, "n": 0, "terms": []}')
    @example(text='{"a0": 1, "n": 1, "terms": [{"k": 1, "a": 2, "b": 3}], '
                  '"x": [{"k": 2, "a": 5, "b": 5}]}')
    @example(text='{"terms": [{"k": 1, "a": 0, "b": 0}], "a0": 1, "n": 1, '
                  '"terms": [{"k": 1, "a": 2, "b": 3}]}')
    @example(text='{"a0": 1, "n": 1, "terms": [{"k": 1, "a": 2, "b": 3, '
                  '"x": {"k": 1, "a": 5, "b": 5}}]}')
    def test_any_document_reads_as_the_whole_document(self, text):
        self.check_alike(text.encode())

    # A null term beside a term-like object, numbers that are not finite
    # or past the float range, and text that is not plain UTF-8.
    @settings(max_examples=150, deadline=None)
    @given(data=malformed_coefficient_json())
    @example(data=b'{"a0": 1, "n": 1, "terms": [null], "generator": '
                  b'{"params": {"k": 1, "a": 0, "b": 0}}}')
    @example(data=b'{"a0": 1, "n": 1, "terms": [{"k": 1, "a": NaN, "b": 0}]}')
    @example(data=b'{"a0": Infinity, "n": 0, "terms": []}')
    @example(data=b'{"a0": 1' + b"0" * 399 + b', "n": 0, "terms": []}')
    @example(data=b'{"a0": 1, "n": 1, "terms": [{"k": 1, "a": 2, "b": 1'
                  + b"0" * 399 + b'}]}')
    @example(data=b'\xef\xbb\xbf{"a0": 1, "n": 0, "terms": []}')
    @example(data='{"a0": 1, "n": 0, "terms": []}'.encode("utf-16"))
    @example(data=b"")
    def test_any_malformed_file_reads_as_the_whole_document(self, data):
        self.check_alike(data)

    @staticmethod
    def check_alike(data: bytes):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "c.json")
            with open(path, "wb") as fh:
                fh.write(data)
            assert read_outcome(lambda: load_coefficients(path)) == \
                read_outcome(lambda: coefficients_from_doc(load_json(path)))

    @pytest.mark.parametrize("spacing", ["written", "spread"])
    def test_plain_documents_never_take_the_whole_document_read(
            self, tmp_path, monkeypatch, spacing):
        seq = make("step", theta0=0.5).coefficients(5000)
        text = dumps_coefficients(seq)
        if spacing == "spread":
            text = text.replace(", ", " ,\n\t").replace("{", "\r\n{ ")
        path = tmp_path / "c.json"
        path.write_text(text, encoding="utf-8")

        def refused(path):
            raise AssertionError("read whole")

        monkeypatch.setattr(formats, "load_json", refused)
        assert read_outcome(lambda: load_coefficients(path)) == \
            read_outcome(lambda: coefficients_from_doc(json.loads(text)))

    def test_the_size_cap_holds_to_the_term(self, tmp_path, monkeypatch):
        monkeypatch.setattr(formats, "MAX_SIZE", 8)
        path = tmp_path / "c.json"
        save_coefficients(path, make("sawtooth").coefficients(8))
        assert load_coefficients(path).n == 8
        save_coefficients(path, make("sawtooth").coefficients(9))
        with pytest.raises(DomainError) as info:
            load_coefficients(path)
        assert str(info.value) == f"{path}: 9 terms exceed 8"


class TestCoefficientWrites:
    """`save_coefficients` streams the document a chunk at a time and
    leaves no partial file."""

    def test_a_refused_generator_raises_before_any_chunk(self, tmp_path):
        seq = CoefficientSequence(0.0, [1.0], [2.0],
                                  generator={"x": math.nan})
        with pytest.raises(DomainError, match="NaN"):
            coefficient_chunks(seq)
        path = tmp_path / "c.json"
        with pytest.raises(DomainError, match="NaN"):
            save_coefficients(path, seq)
        assert not path.exists()

    @pytest.fixture
    def failing_midway(self, monkeypatch):
        """The term chunks fail after the first of them."""
        real = formats._term_chunks

        def first_then_fail(seq):
            chunks = real(seq)
            yield next(chunks)
            raise OSError("no space left")

        monkeypatch.setattr(formats, "_term_chunks", first_then_fail)
        return make("square_wave").coefficients(3 * 4096)

    def test_a_failure_midway_removes_the_file(self, tmp_path,
                                               failing_midway):
        path = tmp_path / "c.json"
        with pytest.raises(OSError, match="no space left"):
            save_coefficients(path, failing_midway)
        assert not path.exists()

    def test_a_failure_midway_leaves_a_device(self, failing_midway):
        with pytest.raises(OSError, match="no space left"):
            save_coefficients(os.devnull, failing_midway)
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


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

    def test_a_sidecar_of_many_small_values_is_refused_unparsed(
            self, tmp_path, monkeypatch):
        # The head and one "," per singular point: 4096 + 1024 here.  The
        # 1024 points written take 1023; a list of zeros within the byte
        # bound takes about 15000.
        monkeypatch.setattr(formats, "MAX_SIZE", 1024)
        path = tmp_path / "grid.csv"
        points = tuple(np.linspace(-3.0, 3.0, 1024))
        write_grid(path, replace(self.sample_grid(), singular_points=points))
        assert read_grid(path).singular_points == points
        side = tmp_path / "grid.csv.json"
        side.write_text('{"singular_points": [' + "0," * 15000 + "0]}")

        def refused(path):
            raise AssertionError("parsed")

        monkeypatch.setattr(formats, "load_json", refused)
        with pytest.raises(DomainError) as info:
            read_grid(path)
        assert str(info.value) == f"{side}: 15000 commas exceed 5120, " \
            "the most in a file of 1024 singular points"

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

    @pytest.mark.parametrize("row, message", [
        ((0.5, "a: -0, b", None, None), "verdict 'a: -0, b'"),
        ((0.5, None, None, None), "verdict None"),
        ((math.nan, RECOVERED, 1.0, 0.0), "NaN"),
        ((-math.inf, UNDEFINED, None, None), "infinite"),
        ((0.5, RECOVERED, math.inf, 0.0), "infinite"),
        ((0.5, SPIKE_MISMATCH, None, -math.inf), "infinite"),
    ], ids=["verdict-with-a-negative-zero", "verdict-none", "theta-nan",
            "theta-inf", "value-inf", "residual-inf"])
    def test_a_refused_node_raises_before_any_chunk(self, tmp_path, row,
                                                    message):
        # The refused node is the last of two chunks, and the text's
        # "-0" rewrite would have turned the verdict into "a: -0.0, b".
        rows = [(0.0, RECOVERED, 1.0, 0.0)] * 4096 + [row]
        report = ClassificationReport(RAGGED, {}, node_records(rows))
        with pytest.raises(DomainError, match=message):
            formats.report_chunks(report)
        path = tmp_path / "r.json"
        with pytest.raises(DomainError, match=message):
            formats.save_text(path, formats.report_chunks(report))
        assert not path.exists()


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


def node_records(rows):
    """A report's node records from (theta, verdict, value, residual)
    rows; a None value or residual is NaN, which the report writes as
    null."""
    nodes = classify._node_records([row[0] for row in rows])
    for name, column in zip(("verdict", "value", "residual"),
                            list(zip(*rows))[1:]):
        nodes[name] = column
    return nodes


@st.composite
def reports(draw):
    rows = draw(st.lists(st.tuples(
        report_floats, verdicts, st.none() | report_floats,
        st.none() | report_floats), max_size=40))
    params = draw(st.fixed_dictionaries(
        {"method": st.sampled_from(["pointwise", "coefficients"]),
         "eps_schedule": st.lists(report_floats, max_size=4),
         "tol": report_floats}))
    return ClassificationReport(draw(st.sampled_from([COMBED, RAGGED])),
                                params, node_records(rows))


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
    @example(seed=2, n=4096, tagged=False)       # one whole chunk
    @example(seed=3, n=3 * 4096 + 5, tagged=True)
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
    @example(report=ClassificationReport(COMBED, {}, node_records([])))
    @example(report=ClassificationReport(RAGGED, {"tol": -0.0}, node_records([
        (-0.0, UNDEFINED, None, None),
        (5e-324, RECOVERED, -1.7976931348623157e308, -0.0),
        (1.7976931348623157e308, SPIKE_MISMATCH, None, None)])))
    def test_report_json_matches_the_element_reference(self, report):
        def cell(x):
            return None if math.isnan(x) else x

        doc = {"overall": report.overall, "params": report.params,
               "nodes": [{"theta": n.theta, "verdict": n.verdict,
                          "value": cell(n.value),
                          "residual": cell(n.residual)}
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


# Put on the first and last row of every chunk of grid rows, and of
# every block of cells the kernel works at once: holes, signed zeros,
# subnormals, and doubles on both sides of the switches to and from the
# exponent form.
EDGE_ROW_VALUES = {
    "hole": [math.nan],
    "signed-zero": [-0.0, 0.0],
    "subnormal": [5e-324, -2.225073858507201e-308, 1e-310],
    "1e-6": [1e-6, -9.9999999999999995e-07, 1e-5, -9.9999999999999991e-06],
    "1e17": [1e17, -99999999999999984.0, 1e16, -9999999999999998.0],
}


@pytest.mark.parametrize("kind", sorted(EDGE_ROW_VALUES))
@pytest.mark.parametrize("n", [8191, 8192, 8193, 3 * 8192 + 5])
def test_grid_csv_matches_the_row_reference_across_chunk_edges(tmp_path,
                                                              n, kind):
    rng = np.random.default_rng(n)
    values = rng.choice(_fast_path_edges(rng), n)
    rows = _gridrows._BLOCK // 2
    assert _gridrows._CHUNK % rows == 0
    edges = [r for start in range(0, n, rows)
             for r in (start, min(start + rows, n) - 1)]
    values[edges] = np.resize(EDGE_ROW_VALUES[kind], len(edges))
    values[rng.random(n) < 0.1] = math.nan
    defined = ~np.isnan(values)
    path = tmp_path / "edges.csv"
    write_grid(path, GridFunction(values, defined))
    assert path.read_text(encoding="utf-8") == reference_grid_csv(
        grid_nodes(n), values, defined)


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
