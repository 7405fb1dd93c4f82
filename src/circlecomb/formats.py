"""Deterministic on-disk formats: coefficient JSON, grid CSV, reports.

Every float is written as `%.17g`, enough to round-trip IEEE doubles
exactly, with -0.0 in JSON as `-0.0`, which JSON reads back as a float,
and dictionary keys keep their insertion order, so the same data always
produces byte-identical files.  JSON is written by this module's own
writer, since the stdlib dumper writes shortest-roundtrip floats.  The
three large bodies are written straight from their data: the rows of a
grid CSV by `_gridrows`, which gives the bytes of `%`-formatting with no
Python object per cell, and the terms of a coefficient document and the
nodes of a report, 4096 at a time, each by one `%`-format over a flat
tuple of cells; the small parts take the element-wise writer.  Whatever
could be refused is serialized or checked before a file is opened, so a
refused value leaves no file behind: grid rows and coefficient terms
hold no value to refuse, and a report's columns are checked before its
first chunk, so all three stream to their file a chunk at a time.
Every file is written by one writer, and a failure while writing
removes the partial file.

Reads are strict; a malformed file raises `DomainError` naming it.
Every file read holds at most `MAX_SIZE` grid rows or coefficient
terms, and one budget holds it before it is parsed: it may be no
larger, and hold no more ",", than the largest such file the writers
emit, at 2 per grid row and 3 per term.  Each CSV field and JSON value
past the first of its row, array or object follows a ",", so a file of
many small values is refused unparsed too.  A grid sidecar gets the
head of a coefficient document plus one longest cell and its "," per
singular point.  A pipe or a device, which has no size to check, is
refused.  A file that parses to more rows or terms than MAX_SIZE is
refused after.
A coefficient document is parsed by one `json.loads` whose object hook
moves each term into two float columns as it is parsed.  A file that
this parse does not accept, valid or not, is parsed whole and checked by
`coefficients_from_doc`, so every refusal has that read's message.
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
import stat
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

# One coefficient term and one report node; `%.17g` cells come from floats,
# verdicts (which need no escaping) as they are, other `%s` cells made first.
_TERM = '{"k": %d, "a": %.17g, "b": %.17g}'
_NODE = '{"theta": %.17g, "verdict": "%s", "value": %s, "residual": %s}'

# Largest grid or coefficient count read from a file, and the largest
# --n and --grid the command line accepts.  At 2^20 a job peaks at
# 63 MB writing coefficient JSON (`spectrum --n`) and 112 MB reading it
# (`eval`), 78-105 MB on the grid routes, and 305 MB (`comb --method
# filter-limit`) to 394 MB (`classify` and its node records) with the
# default widths: under about 1 GB, 8x above the largest sizes in use
# (131072 nodes, 32768 harmonics).
MAX_SIZE = 1 << 20
# A double with the longest `%.17g` cell (sign, 17 digits, point and a
# three-digit exponent), and from it the longest grid row, coefficient
# term and sidecar cell the writers emit, each with its separator.  The
# head of a coefficient document, its generator tag included, and of a
# sidecar gets _HEAD_BYTES.
_LONGEST = -2.2250738585072014e-308
_LONGEST_ROW = "%.17g,%.17g,1\n" % (_LONGEST, _LONGEST)
_LONGEST_TERM = _TERM % (MAX_SIZE, _LONGEST, _LONGEST) + ", "
_LONGEST_CELL = "%.17g, " % _LONGEST
_HEAD_BYTES = 4096
# Coefficient terms or report nodes per chunk written.
_CHUNK_TERMS = 4096

# The Python types json.loads gives JSON numbers; bool is not among them.
_NUMBER = (int, float)


def _check_json_floats(values):
    """Refuse NaN and inf in floats bound for JSON."""
    x = np.asarray(values, dtype=float)
    if np.isnan(x).any():
        raise DomainError("cannot serialize NaN inside JSON; "
                          "use null for missing values")
    if not np.isfinite(x).all():
        raise DomainError("cannot serialize an infinite number")


def _signed_zeros(text: str) -> str:
    """`text` of `_TERM` or `_NODE` cells with each -0.0 cell, written
    "-0" and followed by "," or "}", as "-0.0"."""
    return text.replace(": -0,", ": -0.0,").replace(": -0}", ": -0.0}")


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
        text = "%.17g" % obj
        # JSON reads "-0" as the integer 0, which loses the sign.
        out.append("-0.0" if text == "-0" else text)
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


def save_text(path, chunks):
    """Stream the serialized text `chunks` and a newline to `path`; a
    failure removes the partial file as `write_grid` does.  The chunks
    are made beforehand, so a refused value leaves no file."""
    _write_chunks(path, (chunk.encode() for chunk in chain(chunks, ("\n",))))


def save_json(path, doc):
    save_text(path, (dumps_json(doc),))


def _not_utf8(path, exc: UnicodeDecodeError) -> DomainError:
    return DomainError(f"{path}: not valid UTF-8 ({exc.reason})")


def _check_budget(path, what, entry, head):
    """DomainError when the file at `path` is larger, or holds more ",",
    than the largest file of MAX_SIZE `what` at the text `entry` each
    after `head` bytes (or commas).  The size is checked first, so a file
    too large is never read; the "," are then counted a block at a time.
    Each CSV field or JSON value past the first of its row, array or
    object follows one, so a file of many small values is refused before
    a parse builds them.  A pipe or a device has no size to check, and
    the count would drain it or never end, so it is refused."""
    info = os.stat(path)
    if not stat.S_ISREG(info.st_mode):
        raise DomainError(f"{path}: not a regular file")
    size, bound = info.st_size, head + len(entry) * MAX_SIZE
    if size > bound:
        raise DomainError(f"{path}: {size} bytes exceed {bound}, the largest "
                          f"file of {MAX_SIZE} {what}")
    count, bound = 0, head + entry.count(",") * MAX_SIZE
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            count += block.count(b",")
    if count > bound:
        raise DomainError(f"{path}: {count} commas exceed {bound}, the "
                          f"most in a file of {MAX_SIZE} {what}")


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

def coefficient_chunks(seq: CoefficientSequence):
    """The coefficient document of `seq` as text chunks: the head with
    a0 and n, the terms k = 1..n 4096 at a time, and the tail with the
    generator tag when present.  The head and the tail are made here,
    so a tag that cannot be serialized raises before the first chunk.
    The sequence holds finite floats only, so no term needs a check."""
    head = '{"a0": %s, "n": %d, "terms": [' % (dumps_json(seq.a0), seq.n)
    tail = "]}" if seq.generator is None else \
        '], "generator": ' + dumps_json(seq.generator) + "}"
    return chain((head,), _term_chunks(seq), (tail,))


def _term_chunks(seq):
    for start in range(0, seq.n, _CHUNK_TERMS):
        a = seq.a[start:start + _CHUNK_TERMS].tolist()
        b = seq.b[start:start + _CHUNK_TERMS].tolist()
        cells = zip(range(start + 1, start + 1 + len(a)), a, b)
        yield (", " if start else "") + _signed_zeros(
            ", ".join([_TERM] * len(a)) % tuple(chain.from_iterable(cells)))


def dumps_coefficients(seq: CoefficientSequence) -> str:
    """The coefficient document of `seq` as one string."""
    return "".join(coefficient_chunks(seq))


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
    """Stream the document of `seq` to `path` a chunk at a time."""
    save_text(path, coefficient_chunks(seq))


# What the object hook returns in place of a term it moved to the
# columns; never None, which a JSON null term would pass for.
_IN_COLUMNS = object()


def _columns_read(path):
    """The sequence in the coefficient JSON at `path`, parsed with an
    object hook that moves each plain term into two float columns, or
    None for any file this parse does not accept: a valid document it
    cannot read plainly, or one that `load_json` and
    `coefficients_from_doc` refuse, which then give their message."""
    # Loaded here, as the routes that read no coefficients never need them.
    import mmap
    from array import array
    a, b = array("d"), array("d")

    def to_columns(obj):
        k, ak, bk = obj.get("k"), obj.get("a"), obj.get("b")
        if type(k) is not int or k != len(a) + 1 or k > MAX_SIZE \
                or type(ak) not in _NUMBER or type(bk) not in _NUMBER:
            return obj
        # An integer past the float range raises OverflowError, which
        # ends the parse; the whole-document read then decides.
        a.append(ak)
        b.append(bk)
        return _IN_COLUMNS

    try:
        with open(path, "rb") as fh, \
                mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as mm:
            # The text only: the mapped bytes are not copied.
            text = str(mm, "utf-8")
        doc = json.loads(text, object_hook=to_columns)
        del text            # before the sequence copies the columns
        # A term-like object outside "terms" leaves the counts apart, or
        # stands for the root, which then cannot be indexed.
        a0, n, terms = doc["a0"], doc["n"], doc["terms"]
        gen = doc.get("generator")
        if type(n) is not int or type(a0) not in _NUMBER \
                or type(terms) is not list or len(terms) != n \
                or len(a) != n or terms.count(_IN_COLUMNS) != n \
                or not (gen is None or isinstance(gen, dict)):
            return None
        return CoefficientSequence(a0, np.frombuffer(a), np.frombuffer(b),
                                   generator=gen)
    # A file that cannot be mapped (empty, or not a regular file), bytes
    # that are not UTF-8 and the parser's own errors, a missing key or a
    # root that is no object, a number past the float range or a
    # non-finite coefficient.
    except (OSError, ValueError, RecursionError, KeyError, TypeError,
            OverflowError, DomainError):
        return None


def load_coefficients(path) -> CoefficientSequence:
    """The coefficient JSON at `path`, held to MAX_SIZE terms.  A file
    the columns read does not accept is read again by `load_json`, so
    every refusal keeps the message and the order of that read."""
    _check_budget(path, "terms", _LONGEST_TERM, _HEAD_BYTES)
    seq = _columns_read(path)
    if seq is not None:
        return seq
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
    rows = grid_rows(grid.values, grid.defined)
    meta = {"singular_points": [float(s) for s in grid.singular_points],
            "note": grid.note}
    if grid.domain is not None:
        meta["domain"] = list(grid.domain)
    _write_chunks(path, chain((_GRID_HEADER.encode() + b"\n",), rows),
                  lambda: save_json(_sidecar(path), meta))


def _write_chunks(path, chunks, then=None):
    """Write the byte strings `chunks` to `path`, then call `then()`
    when given.  If anything raises meanwhile, the file is removed when
    it is a regular file (a device such as /dev/null stays) and the
    error propagates."""
    fh = open(path, "wb")
    try:
        with fh:
            fh.writelines(chunks)
        if then is not None:
            then()
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
    _check_budget(path, "rows", _LONGEST_ROW, len(_GRID_HEADER) + 1)
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
        _check_budget(side, "singular points", _LONGEST_CELL, _HEAD_BYTES)
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

def report_chunks(report):
    """The report document as text chunks: the head with the overall
    verdict and params, the nodes 4096 at a time, null where a value or
    residual is NaN, and the tail.  Each column is checked once before
    the first chunk (finite thetas, no infinite value or residual, only
    `classify.VERDICTS`), so a refused value leaves no file."""
    from .classify import VERDICTS   # only the classify route needs it
    nodes = report.nodes
    _check_json_floats(nodes.theta)
    if np.isinf(nodes.value).any() or np.isinf(nodes.residual).any():
        raise DomainError("cannot serialize an infinite number")
    if odd := set(nodes.verdict).difference(VERDICTS):
        raise DomainError(f"cannot serialize verdict {min(map(repr, odd))}")
    head = '{"overall": %s, "params": %s, "nodes": [' % (
        dumps_json(report.overall), dumps_json(report.params))
    return chain((head,), _node_chunks(nodes), ("]}",))


def _node_chunks(nodes):
    def number(x):
        return "null" if math.isnan(x) else "%.17g" % x

    for start in range(0, len(nodes), _CHUNK_TERMS):
        part = nodes[start:start + _CHUNK_TERMS]
        cells = chain.from_iterable(zip(part.theta.tolist(), part.verdict,
                                        map(number, part.value.tolist()),
                                        map(number, part.residual.tolist())))
        yield (", " if start else "") + _signed_zeros(
            ", ".join([_NODE] * len(part)) % tuple(cells))


def dumps_report(report) -> str:
    """The report document as one string."""
    return "".join(report_chunks(report))
