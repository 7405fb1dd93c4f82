"""Deterministic on-disk formats: coefficient JSON, grid CSV, reports.

Every float is written as `%.17g`, enough to round-trip IEEE doubles
exactly, and dictionary keys keep their insertion order, so the same
data always produces byte-identical files.  JSON is written by this
module's own writer, since the stdlib dumper writes shortest-roundtrip
floats.  Both formats are written column-wise: a grid CSV and a list of
flat records sharing their keys (coefficient terms, report nodes) each
take one `%`-format over a flat tuple of cells.

Reads are strict; a malformed file raises `DomainError` naming it.
Files must be UTF-8.  A grid CSV is the header `theta,value,defined`
and at least 2 rows of two decimal numbers and an integer (the grammar
of `np.loadtxt`: no digit separators, no quotes, no comments; empty
lines are skipped).  `defined` is exactly 0 or 1, the thetas are the
nodes of `grid_nodes` to 1e-9, and every defined value is finite.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from itertools import chain

import numpy as np

from .errors import DomainError
from .spectrum import (CoefficientSequence, GridFunction, check_interval,
                       grid_nodes)

_GRID_HEADER = "theta,value,defined"
_GRID_ROW = "%.17g,%.17g,%d\n"
# One parsed CSV row.  The integer field makes the parser itself refuse
# "1.0" or "1e0" as a `defined` flag.
_GRID_FIELDS = np.dtype([("theta", float), ("value", float),
                         ("defined", np.int64)])

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


def _record_column(cells):
    """A column of a record table as (format, cells), or None when it holds
    anything but ints, strings, or floats with or without nulls."""
    kinds = set(map(type, cells))
    if kinds == {int}:
        return "%d", cells
    if kinds == {float}:
        _check_json_floats(cells)
        return "%.17g", cells
    if kinds == {float, type(None)} or kinds == {type(None)}:
        _check_json_floats([x for x in cells if x is not None])
        return "%s", ["null" if x is None else "%.17g" % x for x in cells]
    if kinds == {str}:
        quoted = {s: json.dumps(s) for s in set(cells)}
        return "%s", [quoted[s] for s in cells]
    return None


def _write_records(obj, out: list) -> bool:
    """Write a non-empty list of flat dicts that share their string keys,
    in one order, column by column; False, writing nothing, for any
    other list.  The bytes are those of the element-wise path."""
    keys = tuple(obj[0]) if obj and type(obj[0]) is dict else ()
    if not keys or not all(type(k) is str for k in keys) \
            or not all(type(r) is dict and tuple(r) == keys for r in obj):
        return False
    columns = [_record_column([r[k] for r in obj]) for k in keys]
    if None in columns:
        return False
    row = "{" + ", ".join(f"{json.dumps(k).replace('%', '%%')}: {fmt}"
                          for k, (fmt, _) in zip(keys, columns)) + "}"
    cells = chain.from_iterable(zip(*(col for _, col in columns)))
    out.append("[")
    out.append(", ".join([row] * len(obj)) % tuple(cells))
    out.append("]")
    return True


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
        if isinstance(obj, list) and _write_records(obj, out):
            return
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


def save_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_json(doc))
        fh.write("\n")


def _not_utf8(path, exc: UnicodeDecodeError) -> DomainError:
    return DomainError(f"{path}: not valid UTF-8 ({exc.reason})")


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

def coefficients_to_doc(seq: CoefficientSequence) -> dict:
    doc = {
        "a0": float(seq.a0),
        "n": int(seq.n),
        "terms": [{"k": k, "a": a, "b": b} for k, a, b in
                  zip(range(1, seq.n + 1), seq.a.tolist(), seq.b.tolist())],
    }
    if seq.generator is not None:
        doc["generator"] = seq.generator
    return doc


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
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))
            and math.isfinite(a0)):
        raise DomainError("coefficients must be finite")
    gen = doc.get("generator")
    if gen is not None and not isinstance(gen, dict):
        raise DomainError("generator tag must be an object")
    return CoefficientSequence(a0, a, b, generator=gen)


def save_coefficients(path, seq: CoefficientSequence):
    save_json(path, coefficients_to_doc(seq))


def load_coefficients(path) -> CoefficientSequence:
    return coefficients_from_doc(load_json(path))


# -------------------------------------------------------------------- grids

def _sidecar(path) -> str:
    return str(path) + ".json"


def write_grid(path, grid: GridFunction):
    """Grid CSV plus a metadata sidecar at `<path>.json`, which records
    the singular points, the note and, on interval data, the domain."""
    # GridFunction holds finite values where defined and NaN elsewhere,
    # which `%.17g` writes as "nan", so the rows need no checks.
    cells = zip(grid.thetas().tolist(), grid.values.tolist(),
                grid.defined.tolist())
    body = (_GRID_ROW * grid.n) % tuple(chain.from_iterable(cells))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_GRID_HEADER + "\n")
        fh.write(body)
    meta = {"singular_points": [float(s) for s in grid.singular_points],
            "note": grid.note}
    if grid.domain is not None:
        meta["domain"] = list(grid.domain)
    save_json(_sidecar(path), meta)


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


def _loose_flag(path, row, flag) -> DomainError:
    return DomainError(f"{path}: row {row}: defined must be 0 or 1, "
                       f"got {flag}")


def read_grid(path):
    """Load a grid CSV, and its sidecar when present."""
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
        raise DomainError(f"{path}: {exc}") from None
    n = rows.size
    if n < 2:
        raise DomainError(f"{path}: a grid needs at least 2 rows")
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

def report_to_doc(report) -> dict:
    nodes = []
    for node in report.nodes:
        nodes.append({
            "theta": float(node.theta),
            "verdict": node.verdict,
            "value": None if node.value is None else float(node.value),
            "residual": None if node.residual is None
            else float(node.residual),
        })
    return {"overall": report.overall,
            "params": report.params,
            "nodes": nodes}
