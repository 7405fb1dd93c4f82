"""Seeded input generator: writes one workload's files and job manifest.

    python3 bench/gen.py --workload NAME --seed N --out DIR

The sizes, shapes and job mix of a workload are fixed; the seed draws
only values (phases, levels, spike positions, window widths, radii), so
every seed costs about the same and a second seed is a fair hold-out.
The manifest records each generated file's sha256, so two runs can be
shown to have used the same inputs, and the environment of the checkout
this script sits in.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np

from closed_forms import (TWO_PI, catalog_coefficients, nodes, wrap,
                          write_coefficients, write_grid)

WORKLOADS = ("grid-sampled", "coeff-series", "big-grid-io")


def _shape(kind, n, rng):
    """Grid values of a seeded catalog shape, its singular points and the
    node indices of its jumps.  Every jump and kink sits on a node, and a
    jump node carries the midpoint of its lateral values."""
    j0 = int(rng.integers(n // 8, 3 * n // 8))
    amp = float(rng.uniform(0.5, 2.0))
    off = float(rng.uniform(-1.0, 1.0))
    m = (np.arange(n) - j0) % n
    half = n // 2
    u = TWO_PI * np.where(m < half, m, m - n) / n   # theta - theta_j0, wrapped
    th = nodes(n)
    if kind == "square":
        vals = off + amp * np.sign(u)
        vals[m == half] = off
        return vals, (th[j0], th[(j0 + half) % n]), (j0, (j0 + half) % n)
    if kind == "sawtooth":
        vals = off + amp * u
        vals[m == half] = off
        return vals, (th[(j0 + half) % n],), ((j0 + half) % n,)
    if kind == "triangle":
        vals = off + amp * (1.0 - (2.0 / math.pi) * np.abs(u))
        return vals, (th[j0], th[(j0 + half) % n]), ()
    if kind == "step":
        lo, hi = off, off + amp * float(rng.choice((-1.0, 1.0)))
        vals = np.where(np.arange(n) < j0, lo, hi)
        vals[[0, j0]] = 0.5 * (lo + hi)
        return vals, (-math.pi, th[j0]), (0, j0)
    raise ValueError(kind)


def _far_node(n, singulars, rng, clearance=0.6):
    th = nodes(n)
    dist = np.full(n, np.inf)
    for s in singulars:
        dist = np.minimum(dist, np.abs(wrap(th - s)))
    return int(rng.choice(np.flatnonzero(dist > clearance)))


class _Builder:
    def __init__(self, out, rng):
        self.out = out
        self.rng = rng
        self.files = []
        self.jobs = []

    def path(self, name):
        self.files.append(name)
        return os.path.join(self.out, name)

    def grid(self, name, kind, n, variant="clean", domain=False):
        """A sampled catalog shape; `variant` is clean, spike or jump."""
        vals, singulars, jumps = _shape(kind, n, self.rng)
        defects = {}
        if variant == "spike":
            s = _far_node(n, singulars, self.rng)
            vals[s] += float(self.rng.choice((-1.0, 1.0))
                             * self.rng.uniform(1.0, 3.0))
            defects[str(s)] = "spike_mismatch"
        elif variant == "jump":
            j = jumps[0]
            vals[j] = vals[(j + 1) % n]
            defects[str(j)] = "jump_midpoint_mismatch"
        dom = None
        if domain:
            a = float(self.rng.uniform(-5.0, 5.0))
            dom = (a, a + float(self.rng.uniform(1.0, 20.0)))
        write_grid(self.path(name), vals, singulars, dom, note=kind)
        self.files.append(name + ".json")
        return {"name": name, "n": n, "domain": dom, "defects": defects}

    def series(self, name, entry, n, **params):
        a0, a, b = catalog_coefficients(entry, params, n)
        write_coefficients(self.path(name), a0, a, b,
                           {"name": entry, "params": params})
        return name

    def job(self, jid, argv, outputs, check):
        self.jobs.append({"id": jid, "argv": [str(x) for x in argv],
                          "outputs": outputs, "check": check})

    def grid_job(self, jid, argv, out, check):
        self.job(jid, argv + ["--output", out], [out, out + ".json"], check)


def _grid_sampled(b):
    """Sampled data on 128-512 nodes: quadrature-driven classification
    and combing, grid-interpolant analysis, kernel filtering."""
    rng = b.rng
    g = {
        "sq256": b.grid("sq256.csv", "square", 256),
        "sq256s": b.grid("sq256s.csv", "square", 256, "spike"),
        "saw384": b.grid("saw384.csv", "sawtooth", 384),
        "saw384j": b.grid("saw384j.csv", "sawtooth", 384, "jump"),
        "step384": b.grid("step384.csv", "step", 384),
        "step384j": b.grid("step384j.csv", "step", 384, "jump"),
        "step512": b.grid("step512.csv", "step", 512),
        "tri128s": b.grid("tri128s.csv", "triangle", 128, "spike"),
        "tri256d": b.grid("tri256d.csv", "triangle", 256, domain=True),
        "saw512": b.grid("saw512.csv", "sawtooth", 512),
    }
    for key in ("sq256s", "saw384j", "tri256d", "step384j"):
        gi = g[key]
        b.job(f"classify-{key}",
              ["classify", "--input", gi["name"], "--tol", "1e-3",
               "--output", f"classify-{key}.json"],
              [f"classify-{key}.json"],
              {"kind": "verdicts", "grid": gi, "tol": 1e-3})
    for key in ("sq256", "tri128s", "step384"):
        gi = g[key]
        b.grid_job(f"comb-fl-{key}",
                   ["comb", "--input", gi["name"], "--method",
                    "filter-limit"], f"comb-fl-{key}.csv",
                   {"kind": "filter_limit", "grid": gi})
    for key in ("sq256", "tri128s", "saw384"):
        gi = g[key]
        b.job(f"spectrum-{key}",
              ["spectrum", "--input", gi["name"], "--output",
               f"spectrum-{key}.json"],
              [f"spectrum-{key}.json"],
              {"kind": "grid_spectrum", "grid": gi, "n": 256})
    for key, cells in (("step512", 3.5), ("saw512", 40.0), ("tri256d", 6.0)):
        gi = g[key]
        _kernel_filter_job(b, key, gi, cells * float(rng.uniform(1.0, 1.2)))


def _kernel_filter_job(b, key, gi, cells):
    """`filter --method kernel` with a window of `cells` grid cells."""
    h = TWO_PI / gi["n"]
    eps = cells * h
    if gi["domain"] is not None:
        lo, hi = gi["domain"]
        eps *= (hi - lo) / TWO_PI          # physical half-width
    b.grid_job(f"filter-{key}",
               ["filter", "--input", gi["name"], "--method", "kernel",
                "--eps", repr(eps)], f"filter-{key}.csv",
               {"kind": "kernel_filter", "grid": gi, "eps": eps})


def _coeff_series(b):
    """Coefficient data at n = 2048-32768: synthesis on rings and grids,
    multiplier filtering, radial extrapolation, large JSON I/O."""
    rng = b.rng

    def theta0():
        return float(rng.uniform(-2.5, 2.5))

    step = dict(theta0=theta0(), l_minus=float(rng.uniform(-1, 0)),
                l_plus=float(rng.uniform(0.5, 2)))
    s = {
        "sq8192": b.series("sq8192.json", "square_wave", 8192),
        "saw16384": b.series("saw16384.json", "sawtooth", 16384),
        "tri2048": b.series("tri2048.json", "triangle_wave", 2048),
        "delta4096": b.series("delta4096.json", "delta", 4096,
                              theta0=theta0()),
        "dd2048": b.series("dd2048.json", "delta_derivative", 2048,
                           theta0=theta0(), order=1),
        "step32768": b.series("step32768.json", "step", 32768, **step),
    }
    dd = dict(theta0=theta0(), order=2)
    for entry, n, params in (("square_wave", 32768, {}),
                             ("step", 16384, step),
                             ("delta_derivative", 8192, dd)):
        flags = []
        for key, val in params.items():
            flags += [f"--{key.replace('_', '-')}", repr(val)]
        b.job(f"spectrum-{entry}-{n}",
              ["spectrum", "--catalog", entry, "--n", n, *flags,
               "--output", f"spectrum-{entry}.json"],
              [f"spectrum-{entry}.json"],
              {"kind": "catalog", "entry": entry, "params": params, "n": n})
    for key in ("step32768", "saw16384"):
        eps = float(rng.uniform(0.01, 0.1))
        b.job(f"filter-{key}",
              ["filter", "--input", s[key], "--method", "multiplier",
               "--eps", repr(eps), "--output", f"filter-{key}.json"],
              [f"filter-{key}.json"],
              {"kind": "multiplier", "input": s[key], "eps": eps})
    for key, grid in (("tri2048", 4096), ("sq8192", 1024),
                      ("delta4096", 2048)):
        b.grid_job(f"comb-fourier-{key}",
                   ["comb", "--input", s[key], "--method", "fourier",
                    "--grid", grid], f"comb-fourier-{key}.csv",
                   {"kind": "partial_sum", "input": s[key], "grid": grid})
    for key, grid, rho in (("saw16384", 2048, 0.99),
                           ("step32768", 1024, 0.995)):
        rho = rho + float(rng.uniform(-1e-3, 1e-3))
        b.grid_job(f"eval-rho-{key}",
                   ["eval", "--input", s[key], "--rho", repr(rho),
                    "--grid", grid], f"eval-rho-{key}.csv",
                   {"kind": "ring", "input": s[key], "grid": grid,
                    "rho": rho})
    radii = _radii(rng, 0.96)
    b.grid_job("eval-schedule-sq8192",
               ["eval", "--input", s["sq8192"], "--rho-schedule",
                ",".join(map(repr, radii)), "--grid", 2048],
               "eval-schedule-sq8192.csv",
               {"kind": "radial", "input": s["sq8192"], "grid": 2048,
                "rhos": radii})
    # The default delta schedule reaches rho = 0.99875, past what n = 2048
    # or 4096 coefficients resolve: these jobs warn on every run.
    default_rhos = [1.0 - d for d in (1e-2, 5e-3, 2.5e-3, 1.25e-3)]
    for key, grid, radii in (("dd2048", 1024, None),
                             ("delta4096", 1024, None),
                             ("saw16384", 2048, _radii(rng, 0.97))):
        argv = ["comb", "--input", s[key], "--method", "disk",
                "--grid", grid]
        if radii is not None:
            argv += ["--rho-schedule", ",".join(map(repr, radii))]
        b.grid_job(f"comb-disk-{key}", argv, f"comb-disk-{key}.csv",
                   {"kind": "radial", "input": s[key], "grid": grid,
                    "rhos": radii or default_rhos})


def _radii(rng, rho0):
    """Four radii increasing toward 1, halving the distance each step."""
    d0 = (1.0 - rho0) * float(rng.uniform(0.9, 1.1))
    return [1.0 - d0 / 2 ** j for j in range(4)]


def _big_grid_io(b):
    """32768-131072 nodes: CSV reads and writes, stencil filters from one
    cell to ~2000 cells, and short series synthesized onto many nodes."""
    rng = b.rng
    g = {
        "sq32k": b.grid("sq32k.csv", "square", 32768),
        "saw64k": b.grid("saw64k.csv", "sawtooth", 65536),
        "tri128k": b.grid("tri128k.csv", "triangle", 131072),
        "step64kd": b.grid("step64kd.csv", "step", 65536, domain=True),
        "sq128kd": b.grid("sq128kd.csv", "square", 131072, domain=True),
    }
    for key, cells in (("sq32k", 1.0), ("sq32k", 150.0), ("saw64k", 2000.0),
                       ("tri128k", 600.0), ("step64kd", 300.0),
                       ("sq128kd", 40.0)):
        _kernel_filter_job(b, f"{key}-{cells:g}", g[key],
                           cells * float(rng.uniform(1.0, 1.1)))
    t0 = float(rng.uniform(-2.5, 2.5))
    s = {
        "tri512": b.series("tri512.json", "triangle_wave", 512),
        "saw256": b.series("saw256.json", "sawtooth", 256),
        "delta128": b.series("delta128.json", "delta", 128, theta0=t0),
        "saw128": b.series("saw128.json", "sawtooth", 128),
        "delta64": b.series("delta64.json", "delta", 64, theta0=t0),
        "tri32": b.series("tri32.json", "triangle_wave", 32),
    }
    for key, grid, rho, domain in (("tri512", 131072, 0.999, False),
                                   ("saw256", 65536, 0.99, False),
                                   ("delta128", 65536, 0.95, True)):
        rho = rho + float(rng.uniform(-5e-4, 5e-4))
        argv = ["eval", "--input", s[key], "--rho", repr(rho),
                "--grid", grid]
        if domain:
            argv += ["--domain", "0,10"]
        b.grid_job(f"eval-rho-{key}", argv, f"eval-rho-{key}.csv",
                   {"kind": "ring", "input": s[key], "grid": grid,
                    "rho": rho})
    for key, grid in (("saw128", 65536), ("delta64", 131072),
                      ("tri32", 131072)):
        b.grid_job(f"comb-fourier-{key}",
                   ["comb", "--input", s[key], "--method", "fourier",
                    "--grid", grid], f"comb-fourier-{key}.csv",
                   {"kind": "partial_sum", "input": s[key], "grid": grid})


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def generate(workload, seed, out):
    """Write the workload's inputs under `out`; return the manifest."""
    os.makedirs(out, exist_ok=True)
    rng = np.random.default_rng([int(seed), WORKLOADS.index(workload)])
    b = _Builder(out, rng)
    {"grid-sampled": _grid_sampled, "coeff-series": _coeff_series,
     "big-grid-io": _big_grid_io}[workload](b)
    return {"workload": workload, "seed": int(seed),
            "files": {name: sha256(os.path.join(out, name))
                      for name in b.files},
            "jobs": b.jobs}


def _blas():
    """Name, version and thread count of numpy's BLAS, as found: nothing
    is set.  The thread count is asked of an OpenBLAS library mapped into
    this process, if there is one."""
    info = {"name": None, "version": None, "threads": None}
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=dep.get("name"), version=dep.get("version"))
    except (TypeError, KeyError):
        pass
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {ln.split()[-1] for ln in fh if "blas" in ln.lower()}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        for symbol in ("openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            try:
                info["threads"] = getattr(ctypes.CDLL(lib), symbol)()
            except (OSError, AttributeError):
                continue
            info["library"] = lib
            return info
    return info


def environment(root):
    """What a result depends on beyond the inputs, recorded as found."""
    revision = None
    if os.path.exists(os.path.join(root, ".git")):
        try:
            rev = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            revision = rev.stdout.strip() if rev.returncode == 0 else None
        except OSError:
            pass
    src = os.path.join(root, "src", "circlecomb")
    tree = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            tree.update(name.encode() + b"\0")
            with open(os.path.join(src, name), "rb") as fh:
                tree.update(fh.read())
    return {"git_revision": revision, "src_sha256": tree.hexdigest(),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": sys.version, "numpy": np.__version__,
            "blas": _blas(),
            "thread_env": {k: v for k, v in os.environ.items()
                           if k.endswith("_NUM_THREADS")}}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    manifest = generate(args.workload, args.seed, args.out)
    manifest["environment"] = environment(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    with open(os.path.join(args.out, "manifest.json"), "w",
              encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)


if __name__ == "__main__":
    main()
