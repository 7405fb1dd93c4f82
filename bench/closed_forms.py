"""Closed forms and file formats written from the package's specification.

Nothing here imports circlecomb: the generator uses these helpers to
write inputs and the oracle uses them to judge outputs, so a defect in
the package cannot hide behind shared code.

Conventions (from the package's documentation): on theta in [-pi, pi),
f = a0 + sum_k a_k cos(k theta) + b_k sin(k theta); grid nodes are
theta_i = ((2 i - n) / n) pi; floats are written with 17 significant
digits.
"""

from __future__ import annotations

import json
import math

import numpy as np

TWO_PI = 2.0 * math.pi
GRID_HEADER = "theta,value,defined"


def nodes(n):
    i = np.arange(int(n))
    return ((2 * i - n) / n) * math.pi


def wrap(theta):
    th = np.asarray(theta, dtype=float)
    out = th - TWO_PI * np.round(th / TWO_PI)
    return np.where(out >= math.pi, out - TWO_PI, out)


def fmt(x):
    x = float(x)
    return "nan" if math.isnan(x) else format(x, ".17g")


def _alt(k):
    return np.where(k % 2 == 0, 1.0, -1.0)


def catalog_coefficients(name, params, n):
    """Exact (a0, a, b) through harmonic n for the catalog entries used."""
    k = np.arange(1, n + 1, dtype=float)
    zero = np.zeros(n)
    if name == "square_wave":
        return 0.0, zero, np.where(k % 2 == 1, 4.0 / (k * math.pi), 0.0)
    if name == "sawtooth":
        return 0.0, zero, -2.0 * _alt(k) / k
    if name == "triangle_wave":
        return 0.0, np.where(k % 2 == 1, 8.0 / (math.pi ** 2 * k * k), 0.0), \
            zero.copy()
    if name in ("delta", "delta_derivative"):
        t0 = params["theta0"]
        order = params.get("order", 0)
        # c_k = a_k - i b_k = e^{-i k t0} / pi; d/dtheta multiplies c_k by ik.
        c = np.exp(-1j * k * t0) / math.pi * (1j * k) ** order
        return (1.0 / TWO_PI if order == 0 else 0.0), c.real, -c.imag
    if name == "step":
        t0, lm, lp = params["theta0"], params["l_minus"], params["l_plus"]
        a0 = (lm * (t0 + math.pi) + lp * (math.pi - t0)) / TWO_PI
        a = (lm - lp) * np.sin(k * t0) / (k * math.pi)
        b = (lp - lm) * (np.cos(k * t0) - _alt(k)) / (k * math.pi)
        return a0, a, b
    raise ValueError(f"no closed form for {name!r}")


def write_coefficients(path, a0, a, b, generator=None):
    """Coefficient JSON in the package's documented layout."""
    terms = ", ".join(f'{{"k": {k + 1}, "a": {fmt(a[k])}, "b": {fmt(b[k])}}}'
                      for k in range(len(a)))
    text = f'{{"a0": {fmt(a0)}, "n": {len(a)}, "terms": [{terms}]'
    if generator is not None:
        text += ', "generator": ' + json.dumps(generator)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "}\n")


def read_coefficients(path):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    terms = doc["terms"]
    a = np.array([t["a"] for t in terms], dtype=float)
    b = np.array([t["b"] for t in terms], dtype=float)
    if [t["k"] for t in terms] != list(range(1, len(terms) + 1)):
        raise ValueError(f"{path}: terms are not dense from k=1")
    return float(doc["a0"]), a, b


def write_grid(path, values, singular_points=(), domain=None, note=""):
    """Grid CSV plus its `<path>.json` sidecar."""
    th = nodes(len(values))
    rows = [GRID_HEADER]
    rows += [f"{fmt(t)},{fmt(v)},1" for t, v in zip(th, values)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")
    meta = {"singular_points": [float(s) for s in singular_points],
            "note": note}
    if domain is not None:
        meta["domain"] = [float(domain[0]), float(domain[1])]
    with open(str(path) + ".json", "w", encoding="utf-8") as fh:
        fh.write(json.dumps(meta) + "\n")


def read_grid(path):
    """(values, defined, meta) from a grid CSV and its sidecar."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != GRID_HEADER:
            raise ValueError(f"{path}: bad header {header!r}")
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    if np.max(np.abs(rows[:, 0] - nodes(len(rows)))) > 1e-9:
        raise ValueError(f"{path}: nodes are not the uniform grid")
    with open(str(path) + ".json", encoding="utf-8") as fh:
        meta = json.load(fh)
    return rows[:, 1], rows[:, 2] == 1, meta
