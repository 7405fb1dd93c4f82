"""Independent oracle: judges every job's output after the timed loop.

    python3 bench/oracle.py WORKDIR

Reads WORKDIR/manifest.json and the jobs' output files, writes
WORKDIR/oracle.json mapping each job id to {"ok", "error", "bound",
"detail"}.  `error` and `bound` are in the same units, so a miss reads
as a measured error against its bound.  Nothing here imports
circlecomb; expected values come from:

- closed-form catalog coefficients;
- direct cos/sin partial sums and ring sums, with phases reduced
  exactly in integers so the oracle has no k*ulp phase drift of its own;
- the exact window average of the piecewise-linear grid interpolant,
  from its piecewise-quadratic antiderivative;
- the interpolant's coefficients DFT(v) * (-1)^k * sinc^2(k h / 2);
- verdicts known by construction for clean and ragged grids.
"""

from __future__ import annotations

import json
import math
import os
import sys

import numpy as np

from closed_forms import (catalog_coefficients, nodes, read_coefficients,
                          read_grid, wrap)

ULP = np.finfo(float).eps
# Windows of the default shrinking schedule reach 0.2 rad on each side;
# nodes closer than twice that to a defect or to an interval seam see it.
NEAR = 0.45
# Element budget for temporary (harmonics x nodes) blocks.
_BLOCK = 1 << 22


class Miss(Exception):
    """An output that exists but is wrong or malformed."""


def _dist_to(th, points):
    d = np.full(th.shape, np.inf)
    for p in points:
        d = np.minimum(d, np.abs(wrap(th - p)))
    return d


def _near_mask(grid, th):
    """Nodes whose windows may see a defect or the interval seam."""
    n = len(th)
    pts = [nodes(n)[int(i)] for i in grid["defects"]]
    if grid["domain"] is not None:
        pts.append(-math.pi)
    return _dist_to(th, pts) <= NEAR


def trig_sums(a0, a, b, n_nodes, radii=(1.0,)):
    """a0 + sum_k r^k (a_k cos k theta + b_k sin k theta) on the grid, one
    row per radius.  k theta_j = pi (k (2j - N) mod 2N) / N is reduced
    exactly in integers before the table lookup."""
    n = len(a)
    N = int(n_nodes)
    cos_tab = np.cos(np.pi * np.arange(2 * N) / N)
    sin_tab = np.sin(np.pi * np.arange(2 * N) / N)
    twice = 2 * np.arange(N, dtype=np.int64) - N
    radii = np.asarray(radii, dtype=float)
    out = np.full((radii.size, N), a0)
    step = max(1, _BLOCK // N)
    for k0 in range(0, n, step):
        k = np.arange(k0 + 1, min(k0 + step, n) + 1, dtype=np.int64)
        idx = np.multiply.outer(k, twice) % (2 * N)
        w = radii[:, None] ** k[None, :].astype(float)
        out += (w * a[k - 1]) @ cos_tab[idx] + (w * b[k - 1]) @ sin_tab[idx]
    return out


def window_average(v, q):
    """Exact average of the periodic piecewise-linear interpolant of v
    over [i - q, i + q] (index units) at every node i."""
    n = v.size
    mean = float(np.mean(v))
    u = v - mean
    nxt = np.roll(u, -1)
    prefix = np.concatenate(([0.0], np.cumsum(0.5 * (u + nxt))))

    def antiderivative(x):
        # The mean-free interpolant integrates to 0 over a period.
        j = np.floor(x)
        t = x - j
        j = j.astype(np.int64) % n
        return prefix[j] + t * u[j] + 0.5 * t * t * (nxt[j] - u[j])

    i = np.arange(n, dtype=float)
    return mean + (antiderivative(i + q) - antiderivative(i - q)) / (2.0 * q)


def _lagrange_at_zero(deltas):
    d = np.asarray(deltas, dtype=float)
    w = np.ones(d.size)
    for j in range(d.size):
        for m in range(d.size):
            if m != j:
                w[j] *= d[m] / (d[m] - d[j])
    return w


def _expect(ok, message):
    if not ok:
        raise Miss(message)


def _grid_output(path, n):
    vals, defined, meta = read_grid(path)
    _expect(vals.size == n, f"{vals.size} nodes, expected {n}")
    return vals, defined, meta


def check_verdicts(job, c):
    g = c["grid"]
    v, _, _ = read_grid(g["name"])
    with open(job["outputs"][0], encoding="utf-8") as fh:
        doc = json.load(fh)
    rows = doc["nodes"]
    n = g["n"]
    _expect(len(rows) == n, f"{len(rows)} node reports, expected {n}")
    th = np.array([r["theta"] for r in rows])
    _expect(np.max(np.abs(th - nodes(n))) < 1e-12, "node angles drift")
    want = "ragged" if g["defects"] else "combed"
    _expect(doc["overall"] == want, f"overall {doc['overall']}, want {want}")
    near = _near_mask(g, th)
    worst = 0.0
    for i, r in enumerate(rows):
        verdict = r["verdict"]
        if str(i) in g["defects"]:
            _expect(verdict == g["defects"][str(i)],
                    f"node {i}: {verdict}, want {g['defects'][str(i)]}")
        elif verdict == "recovered":
            worst = max(worst, abs(r["value"] - v[i]))
        else:
            _expect(verdict == "undefined" and near[i],
                    f"node {i} far from any defect: {verdict}")
    return worst, c["tol"]


def check_filter_limit(job, c):
    g = c["grid"]
    v, _, _ = read_grid(g["name"])
    out, defined, _ = _grid_output(job["outputs"][0], g["n"])
    far = ~_near_mask(g, nodes(g["n"]))
    _expect(np.all(defined[far]), "holes far from every defect")
    return float(np.max(np.abs(out[far] - v[far]))), 1e-6


def check_grid_spectrum(job, c):
    v, _, _ = read_grid(c["grid"]["name"])
    a0, a, b = read_coefficients(job["outputs"][0])
    n, N = c["n"], v.size
    _expect(a.size == n, f"{a.size} harmonics, expected {n}")
    k = np.arange(1, n + 1)
    x = k * math.pi / N                      # k h / 2
    c_k = (2.0 / N) * np.fft.fft(v)[k % N] * np.where(k % 2, -1.0, 1.0) \
        * (np.sin(x) / x) ** 2
    err = max(abs(a0 - float(np.mean(v))),
              float(np.max(np.abs(a - c_k.real))),
              float(np.max(np.abs(b + c_k.imag))))
    # The CLI's default coefficient tolerance is 1e-10.
    return err, 1e-9


def check_kernel_filter(job, c):
    g = c["grid"]
    v, _, _ = read_grid(g["name"])
    n = g["n"]
    out, defined, meta = _grid_output(job["outputs"][0], n)
    h = 2.0 * math.pi / n
    eps = c["eps"]
    if g["domain"] is not None:
        lo, hi = g["domain"]
        eps *= 2.0 * math.pi / (hi - lo)
        _expect(meta.get("domain") == [lo, hi], "domain tag lost")
        # Windows reaching across the interval seam are masked.
        margin = _dist_to(nodes(n), [math.pi]) - (eps + h)
        _expect(np.all(defined[margin > 1e-9]) and
                not np.any(defined[margin < -1e-9]), "seam mask is wrong")
    else:
        _expect(np.all(defined), "undefined nodes from all-defined input")
    want = window_average(v, eps / h)
    err = float(np.max(np.abs(out[defined] - want[defined])))
    return err, 1e-10 * (1.0 + float(np.max(np.abs(v))))


def check_catalog(job, c):
    a0, a, b = read_coefficients(job["outputs"][0])
    e0, ea, eb = catalog_coefficients(c["entry"], c["params"], c["n"])
    _expect(a.size == c["n"], f"{a.size} harmonics, expected {c['n']}")
    scale = max(1.0, float(np.max(np.abs(ea) + np.abs(eb))))
    err = max(abs(a0 - e0), float(np.max(np.abs(a - ea))),
              float(np.max(np.abs(b - eb))))
    return err, 1e-13 * scale


def check_multiplier(job, c):
    a0, a, b = read_coefficients(c["input"])
    f0, fa, fb = read_coefficients(job["outputs"][0])
    _expect(fa.size == a.size, "harmonic count changed")
    x = np.arange(1, a.size + 1) * c["eps"]
    m = np.sin(x) / x
    err = max(abs(f0 - a0), float(np.max(np.abs(fa - a * m))),
              float(np.max(np.abs(fb - b * m))))
    return err, 4.0 * ULP * max(1.0, float(np.max(np.abs(a) + np.abs(b))))


def check_partial_sum(job, c):
    a0, a, b = read_coefficients(c["input"])
    out, defined, _ = _grid_output(job["outputs"][0], c["grid"])
    _expect(np.all(defined), "undefined nodes in a partial sum")
    want = trig_sums(a0, a, b, c["grid"])[0]
    # Phase error of repeated multiplication grows like k ulp per term.
    k = np.arange(1, a.size + 1)
    bound = 16.0 * ULP * (abs(a0) + float(np.sum(k * np.hypot(a, b))))
    return float(np.max(np.abs(out - want))), bound


def _ring_bound(a0, a, b, rho):
    """Horner's rounding bound for a degree-n series at radius rho."""
    k = np.arange(1, a.size + 1)
    return 8.0 * a.size * ULP * (abs(a0) + float(np.sum(rho ** k
                                                        * np.hypot(a, b))))


def check_ring(job, c):
    a0, a, b = read_coefficients(c["input"])
    out, defined, _ = _grid_output(job["outputs"][0], c["grid"])
    _expect(np.all(defined), "undefined nodes on a ring")
    want = trig_sums(a0, a, b, c["grid"], [c["rho"]])[0]
    return float(np.max(np.abs(out - want))), _ring_bound(a0, a, b, c["rho"])


def check_radial(job, c):
    a0, a, b = read_coefficients(c["input"])
    out, defined, meta = _grid_output(job["outputs"][0], c["grid"])
    rhos = np.asarray(c["rhos"], dtype=float)
    rings = trig_sums(a0, a, b, c["grid"], rhos)
    w = _lagrange_at_zero(1.0 - rhos)
    want = w @ rings
    with open(c["input"], encoding="utf-8") as fh:
        params = json.load(fh)["generator"]["params"]
    # Ring values blow up only next to a point mass.
    if "theta0" in params and "l_minus" not in params:
        allowed = _dist_to(nodes(c["grid"]), [params["theta0"]]) < 0.05
    else:
        allowed = np.zeros(c["grid"], dtype=bool)
    _expect(np.all(defined | allowed), "undefined nodes away from any "
                                       "point mass")
    bound = sum(abs(wj) * _ring_bound(a0, a, b, r) for wj, r in zip(w, rhos))
    return float(np.max(np.abs(out[defined] - want[defined]))), bound


CHECKS = {
    "verdicts": check_verdicts,
    "filter_limit": check_filter_limit,
    "grid_spectrum": check_grid_spectrum,
    "kernel_filter": check_kernel_filter,
    "catalog": check_catalog,
    "multiplier": check_multiplier,
    "partial_sum": check_partial_sum,
    "ring": check_ring,
    "radial": check_radial,
}


def judge(job):
    """{"ok", "error", "bound", "detail"} for one job's current outputs."""
    try:
        err, bound = CHECKS[job["check"]["kind"]](job, job["check"])
    except (Miss, OSError, ValueError, KeyError, TypeError) as exc:
        return {"ok": False, "error": None, "bound": None,
                "detail": f"{type(exc).__name__}: {exc}"}
    ok = bool(np.isfinite(err) and err <= bound)
    return {"ok": ok, "error": float(err), "bound": float(bound),
            "detail": "" if ok else f"error {err:.3e} > bound {bound:.3e}"}


def main():
    workdir = sys.argv[1]
    os.chdir(workdir)
    with open("manifest.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    verdicts = {job["id"]: judge(job) for job in manifest["jobs"]}
    with open("oracle.json", "w", encoding="utf-8") as fh:
        json.dump(verdicts, fh, indent=1)


if __name__ == "__main__":
    main()
