"""Deterministic on-disk formats: coefficient JSON, grid CSV, reports.

All floats are written with 17 significant digits, enough to round-trip
IEEE doubles exactly, and dictionary keys keep a fixed order, so the
same data always produces byte-identical files.  The stdlib json dumper
is avoided on the write side only because its float repr is
shortest-roundtrip rather than fixed-width; reading uses json.loads.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .errors import DomainError
from .realfilter import GridFunction
from .spectrum import CoefficientSequence, grid_nodes

_GRID_HEADER = "theta,value,defined"

# The Python types json.loads gives JSON numbers; bool is not among them.
_NUMBER = (int, float)


def _fmt(x: float) -> str:
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        raise DomainError("cannot serialize an infinite number")
    return format(x, ".17g")


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
        if math.isnan(float(obj)):
            raise DomainError("cannot serialize NaN inside JSON; "
                              "use null for missing values")
        out.append(_fmt(obj))
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


def save_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_json(doc))
        fh.write("\n")


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise DomainError(f"{path}: not valid JSON: {exc}") from None


# ------------------------------------------------------------- coefficients

def coefficients_to_doc(seq: CoefficientSequence) -> dict:
    doc = {
        "a0": float(seq.a0),
        "n": int(seq.n),
        "terms": [{"k": k + 1, "a": float(seq.a[k]), "b": float(seq.b[k])}
                  for k in range(seq.n)],
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


def write_grid(path, grid: GridFunction, domain=None):
    """Grid CSV plus a metadata sidecar at `<path>.json`.

    `domain` [a, b], when given, marks the grid as living on a physical
    interval; loaders transport such grids back to the circle.
    """
    lines = [_GRID_HEADER]
    thetas = grid.thetas()
    for i in range(grid.n):
        val = _fmt(grid.values[i]) if grid.defined[i] else "nan"
        lines.append(f"{_fmt(thetas[i])},{val},{1 if grid.defined[i] else 0}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")
    meta = {"singular_points": [float(s) for s in grid.singular_points],
            "note": grid.note}
    if domain is not None:
        lo, hi = float(domain[0]), float(domain[1])
        meta["domain"] = [lo, hi]
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


def read_grid(path):
    """Load a grid CSV (and sidecar when present).

    Returns (grid, domain) with domain None for plain circle grids.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != _GRID_HEADER:
        raise DomainError(f"{path}: expected header {_GRID_HEADER!r}")
    rows = lines[1:]
    n = len(rows)
    if n < 2:
        raise DomainError(f"{path}: a grid needs at least 2 rows")
    thetas = np.empty(n)
    values = np.empty(n)
    defined = np.empty(n, dtype=bool)
    for i, row in enumerate(rows):
        parts = row.split(",")
        if len(parts) != 3:
            raise DomainError(f"{path}: row {i + 1} has {len(parts)} fields")
        try:
            thetas[i] = float(parts[0])
            values[i] = float(parts[1])
            defined[i] = bool(int(parts[2]))
        except ValueError as exc:
            raise DomainError(f"{path}: row {i + 1}: {exc}") from None
    if np.max(np.abs(thetas - grid_nodes(n))) > 1e-9:
        raise DomainError(f"{path}: nodes are not the uniform symmetric "
                          f"{n}-point grid")
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
        note = str(meta.get("note", ""))
        if "domain" in meta:
            domain = _finite_list(meta["domain"], f"{side}: domain [a, b]")
            if len(domain) != 2 or not domain[0] < domain[1]:
                raise DomainError(f"{side}: domain must be [a, b] with "
                                  "b > a")
    grid = GridFunction(values=values, defined=defined,
                        singular_points=singulars, note=note)
    return grid, domain


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
