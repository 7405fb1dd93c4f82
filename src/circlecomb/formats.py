"""Deterministic on-disk formats: coefficient JSON, grid CSV, reports.

Every float is written as `%.17g`, enough to round-trip IEEE doubles
exactly, and dictionary keys keep their insertion order, so the same
data always produces byte-identical files.  JSON is written by this
module's own writer, since the stdlib dumper writes shortest-roundtrip
floats.  The three large bodies are written straight from their data:
the rows of a grid CSV by `_gridrows`, which gives the bytes of
`%`-formatting with no Python object per cell, and the terms of a
coefficient document and the nodes of a report each by one `%`-format
over a flat tuple of cells; the small parts take the element-wise
writer.  The JSON writers serialize before they open their file, so a
refused value leaves no file behind.  A grid body holds no value to
refuse, so it streams to its file a chunk of rows at a time, and a
failure meanwhile removes the partial file.

Reads are strict; a malformed file raises `DomainError` naming it.
Every file read holds at most `MAX_SIZE` grid rows or coefficient
terms.  A file larger than the largest such file the writers emit is
refused by its size before it is parsed, and one that parses to more
rows or terms after.
Files must be UTF-8.  A grid CSV is the header `theta,value,defined`
and at least 2 rows of two decimal numbers and an integer (the grammar
of `np.loadtxt`: no digit separators, no quotes, no comments; empty
lines are skipped).  `defined` is exactly 0 or 1, the thetas are the
nodes of `grid_nodes` to 1e-9, and every defined value is finite.
Messages count the body's rows from 1, the first non-empty line after
the header; empty lines are not counted.
"""

from __future__ import annotations

import json
import math
import os
import re
import warnings
from itertools import chain

import numpy as np

from .errors import DomainError
from .spectrum import (CoefficientSequence, GridFunction, check_interval,
                       grid_nodes)

_GRID_HEADER = "theta,value,defined"
# One parsed CSV row.  The integer field makes the parser itself refuse
# "1.0" or "1e0" as a `defined` flag.
_GRID_FIELDS = np.dtype([("theta", float), ("value", float),
                         ("defined", np.int64)])

# One coefficient term and one report node; `%.17g` cells come straight
# from floats, `%s` cells are written beforehand.
_TERM = '{"k": %d, "a": %.17g, "b": %.17g}'
_NODE = '{"theta": %.17g, "verdict": %s, "value": %s, "residual": %s}'

# Largest grid or coefficient count read from a file, and the largest
# --n and --grid the command line accepts.  At 2^20 a job peaks at
# 266 MB for coefficient JSON (`spectrum --n`), 83-94 MB on the grid
# routes, and 305 MB (`comb --method filter-limit`) to 557 MB (`classify`
# and its per-node report) with the default widths: under about 1 GB,
# 8x above the largest sizes in use (131072 nodes, 32768 harmonics).
MAX_SIZE = 1 << 20
# A double with the longest `%.17g` cell (sign, 17 digits, point and a
# three-digit exponent), and from it the longest grid row and coefficient
# term (with its ", " separator) the writers emit.  The head of a
# coefficient document, its generator tag included, gets _HEAD_BYTES.
_LONGEST = -2.2250738585072014e-308
_ROW_BYTES = len("%.17g,%.17g,1\n" % (_LONGEST, _LONGEST))
_TERM_BYTES = len(_TERM % (MAX_SIZE, _LONGEST, _LONGEST) + ", ")
_HEAD_BYTES = 4096

# The Python types json.loads gives JSON numbers; bool is not among them.
_NUMBER = (int, float)


def _check_json_floats(values):
    """Refuse NaN and inf in floats bound for JSON."""
    x = np.array(values, dtype=float)
    if np.isnan(x).any():
        raise DomainError("cannot serialize NaN inside JSON; "
                          "use null for missing values")
    if not np.isfinite(x).all():
        raise DomainError("cannot serialize an infinite number")


def _write_json(obj, out: list):
    if obj is None:
        out.append("null")
    elif obj is True or obj is False:
        out.append("true" if obj else "false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        _check_json_floats(obj)
        out.append("%.17g" % obj)
    elif isinstance(obj, dict):
        out.append("{")
        for i, (key, val) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise DomainError(f"JSON keys must be strings, got {key!r}")
            if i:
                out.append(", ")
            out.append(json.dumps(key))
            out.append(": ")
            _write_json(val, out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.append("[")
        for i, val in enumerate(obj):
            if i:
                out.append(", ")
            _write_json(val, out)
        out.append("]")
    else:
        raise DomainError(f"cannot serialize {type(obj).__name__} to JSON")


def dumps_json(obj) -> str:
    """Serialize with fixed key order and 17-digit floats."""
    out = []
    _write_json(obj, out)
    return "".join(out)


def save_text(path, text: str):
    """Write serialized `text`, so a refused value leaves no file."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def save_json(path, doc):
    save_text(path, dumps_json(doc))


def _not_utf8(path, exc: UnicodeDecodeError) -> DomainError:
    return DomainError(f"{path}: not valid UTF-8 ({exc.reason})")


def _check_bytes(path, what, per_entry, head):
    """DomainError when the file at `path` is larger than the largest
    file of MAX_SIZE `what` at `per_entry` bytes each after `head`."""
    size, bound = os.stat(path).st_size, head + per_entry * MAX_SIZE
    if size > bound:
        raise DomainError(f"{path}: {size} bytes exceed {bound}, the largest "
                          f"file of {MAX_SIZE} {what}")


def _check_count(path, count, what):
    if count > MAX_SIZE:
        raise DomainError(f"{path}: {count} {what} exceed {MAX_SIZE}")


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None
    # JSONDecodeError, an integer past the digit limit, or nesting too
    # deep for the parser.
    except (ValueError, RecursionError) as exc:
        raise DomainError(f"{path}: not valid JSON: {exc}") from None


# ------------------------------------------------------------- coefficients

def dumps_coefficients(seq: CoefficientSequence) -> str:
    """The coefficient document of `seq`: a0, n, the terms k = 1..n and
    the generator tag when present.  The sequence holds finite floats
    only, so no cell needs a check."""
    cells = zip(range(1, seq.n + 1), seq.a.tolist(), seq.b.tolist())
    text = ('{"a0": %.17g, "n": %d, "terms": [' % (seq.a0, seq.n)
            + ", ".join([_TERM] * seq.n) % tuple(chain.from_iterable(cells))
            + "]")
    if seq.generator is not None:
        text += ', "generator": ' + dumps_json(seq.generator)
    return text + "}"


def coefficients_from_doc(doc) -> CoefficientSequence:
    """Read a coefficient document strictly: `n` and every `k` are JSON
    integers, `a0`, `a` and `b` JSON numbers; strings, booleans and
    integers beyond the float range are refused with DomainError."""
    if not isinstance(doc, dict):
        raise DomainError("coefficient document must be a JSON object")
    try:
        a0, n, terms = doc["a0"], doc["n"], doc["terms"]
    except KeyError as exc:
        raise DomainError(f"malformed coefficient document: missing "
                          f"{exc}") from None
    if type(n) is not int or type(a0) not in _NUMBER:
        raise DomainError("malformed coefficient document: n must be an "
                          "integer and a0 a number")
    if not isinstance(terms, list) or len(terms) != n:
        raise DomainError(f"expected {n} terms, found "
                          f"{len(terms) if isinstance(terms, list) else 'none'}")
    a = np.empty(n)
    b = np.empty(n)
    try:
        a0 = float(a0)
        for i, term in enumerate(terms):
            try:
                k, ak, bk = term["k"], term["a"], term["b"]
            except (KeyError, TypeError) as exc:
                raise DomainError(f"malformed term {i}: {exc}") from None
            if type(k) is not int or type(ak) not in _NUMBER \
                    or type(bk) not in _NUMBER:
                raise DomainError(f"malformed term {i}: k must be an "
                                  "integer, a and b numbers")
            if k != i + 1:
                raise DomainError(f"terms must be dense over k = 1..{n}; "
                                  f"term {i} has k={k}")
            a[i], b[i] = ak, bk
    except OverflowError:       # an integer beyond the float range
        raise DomainError("coefficients must be finite") from None
    gen = doc.get("generator")
    if gen is not None and not isinstance(gen, dict):
        raise DomainError("generator tag must be an object")
    return CoefficientSequence(a0, a, b, generator=gen)


def save_coefficients(path, seq: CoefficientSequence):
    save_text(path, dumps_coefficients(seq))


def load_coefficients(path) -> CoefficientSequence:
    """The coefficient JSON at `path`, held to MAX_SIZE terms."""
    _check_bytes(path, "terms", _TERM_BYTES, _HEAD_BYTES)
    doc = load_json(path)
    terms = doc.get("terms") if isinstance(doc, dict) else None
    if isinstance(terms, list):
        _check_count(path, len(terms), "terms")
    return coefficients_from_doc(doc)


# -------------------------------------------------------------------- grids

def _sidecar(path) -> str:
    return str(path) + ".json"


def write_grid(path, grid: GridFunction):
    """Grid CSV plus a metadata sidecar at `<path>.json`, which records
    the singular points, the note and, on interval data, the domain.

    The body streams to the file a chunk of rows at a time.  If anything
    raises meanwhile, or the sidecar cannot be written, the CSV is
    removed when it is a regular file (a device such as /dev/null stays)
    and the error propagates."""
    # GridFunction holds finite values where defined and NaN elsewhere,
    # which `%.17g` writes as "nan", so the rows need no checks.
    from ._gridrows import grid_rows
    rows = grid_rows(grid.thetas(), grid.values, grid.defined)
    meta = {"singular_points": [float(s) for s in grid.singular_points],
            "note": grid.note}
    if grid.domain is not None:
        meta["domain"] = list(grid.domain)
    fh = open(path, "wb")
    try:
        with fh:
            fh.write(_GRID_HEADER.encode() + b"\n")
            for chunk in rows:
                fh.write(chunk)
        save_json(_sidecar(path), meta)
    except BaseException:
        if os.path.isfile(path):
            os.remove(path)
        raise


def _finite_list(raw, what):
    """A JSON list of finite numbers as a tuple of floats."""
    try:
        if isinstance(raw, list) and all(type(x) in _NUMBER for x in raw):
            vals = tuple(float(x) for x in raw)
            if all(math.isfinite(v) for v in vals):
                return vals
    except OverflowError:       # an integer beyond the float range
        pass
    raise DomainError(f"{what} must be a list of finite numbers")


def _from_one(exc: ValueError) -> str:
    """The parser's message with its rows counted from 1: `np.loadtxt`
    counts them from 0 in a conversion error ("at row 3, column 2" on
    the fourth) and from 1 in a column-count error."""
    # Where a conversion error ends; a token holds no comma.
    return re.sub(r" at row (\d+), column (\d+)(?=\.?$)",
                  lambda m: f" at row {int(m[1]) + 1}, column {m[2]}",
                  str(exc))


def _loose_flag(path, row, flag) -> DomainError:
    return DomainError(f"{path}: row {row}: defined must be 0 or 1, "
                       f"got {flag}")


def read_grid(path):
    """Load a grid CSV, and its sidecar when present, held to MAX_SIZE
    rows."""
    _check_bytes(path, "rows", _ROW_BYTES, len(_GRID_HEADER) + 1)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            if fh.readline().strip() != _GRID_HEADER:
                raise DomainError(f"{path}: expected header "
                                  f"{_GRID_HEADER!r}")
            with warnings.catch_warnings():
                # An empty body is refused below by its row count.
                warnings.simplefilter("ignore", UserWarning)
                rows = np.loadtxt(fh, dtype=_GRID_FIELDS, delimiter=",",
                                  comments=None, ndmin=1)
    except UnicodeDecodeError as exc:     # before ValueError, its base
        raise _not_utf8(path, exc) from None
    except ValueError as exc:
        # The parser's message names the token, row and column.
        raise DomainError(f"{path}: {_from_one(exc)}") from None
    n = rows.size
    if n < 2:
        raise DomainError(f"{path}: a grid needs at least 2 rows")
    _check_count(path, n, "rows")
    flags = rows["defined"]
    loose = np.flatnonzero((flags != 0) & (flags != 1))
    if loose.size:
        raise _loose_flag(path, loose[0] + 1, flags[loose[0]])
    # Written so that a NaN theta fails it.
    if not np.all(np.abs(rows["theta"] - grid_nodes(n)) <= 1e-9):
        raise DomainError(f"{path}: nodes are not the uniform symmetric "
                          f"{n}-point grid")
    defined = flags == 1
    values = rows["value"]
    if np.any(defined & ~np.isfinite(values)):
        raise DomainError(f"{path}: non-finite value marked as defined")

    singulars = ()
    note = ""
    domain = None
    side = _sidecar(path)
    if os.path.exists(side):
        meta = load_json(side)
        if not isinstance(meta, dict):
            raise DomainError(f"{side}: metadata must be a JSON object")
        singulars = _finite_list(meta.get("singular_points", []),
                                 f"{side}: singular_points")
        note = meta.get("note", "")
        if not isinstance(note, str):
            raise DomainError(f"{side}: note must be a string")
        if "domain" in meta:
            domain = check_interval(
                _finite_list(meta["domain"], f"{side}: domain [a, b]"),
                f"{side}: domain")
    return GridFunction(values=values, defined=defined,
                        singular_points=singulars, note=note, domain=domain)


# ------------------------------------------------------------------ reports

def dumps_report(report) -> str:
    """The report document: overall verdict, params, and one object per
    node with its theta, verdict, value and residual (null when None)."""
    def number(x):
        return "null" if x is None else "%.17g" % x

    nodes = report.nodes
    _check_json_floats([x for node in nodes
                        for x in (node.theta, node.value, node.residual)
                        if x is not None])
    quoted = {v: json.dumps(v) for v in {node.verdict for node in nodes}}
    cells = chain.from_iterable(
        (node.theta, quoted[node.verdict], number(node.value),
         number(node.residual)) for node in nodes)
    return '{"overall": %s, "params": %s, "nodes": [%s]}' % (
        dumps_json(report.overall), dumps_json(report.params),
        ", ".join([_NODE] * len(nodes)) % tuple(cells))
