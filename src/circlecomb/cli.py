"""Command-line front end: files in, files out, deterministic bytes.

Subcommands: spectrum, filter, classify, comb, eval.  Coefficient data
travels as JSON, sampled data as grid CSV with a metadata sidecar.
Exit codes: 0 success, 2 usage or validation error, 3 numeric failure.
Identical inputs and flags always produce byte-identical outputs.

An `--output` that cannot be written (a missing or unwritable directory,
a name past the file system's limit, on the grid routes also for its
`<output>.json` sidecar) exits 2 before any input is read, and creates
no file.  Input files are held to `formats.MAX_SIZE` entries by their
readers, by their size and their count of "," before they are parsed.

The process runs BLAS on one thread unless the caller sets a count:
loading this module before numpy sets `OPENBLAS_NUM_THREADS=1` when none
of `OPENBLAS_NUM_THREADS`, `GOTO_NUM_THREADS` and `OMP_NUM_THREADS` is
set.  An idle OpenBLAS worker busy-waits before it sleeps, which costs
a job this short about a third of its CPU time on a second core; the
CLI's BLAS calls are small least-squares fits that gain nothing from
threads, and one thread keeps results independent of the core count.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
import warnings
from dataclasses import replace

# Before numpy loads OpenBLAS, which reads its thread count once.
if "numpy" not in sys.modules and not any(
        key in os.environ for key in ("OPENBLAS_NUM_THREADS",
                                      "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

from . import formats
from .errors import (BadParams, CircleCombError, DomainError,
                     EpsilonBelowResolution, NonIntegrableInput,
                     NotAvailable, OutOfDomain, UnknownName)
from .spectrum import (DEFAULT_N, GridFunction, check_interval,
                       grid_coefficients)

# Usage errors exit 2, as does a file that cannot be read or written.
# Every other CircleCombError is a numeric failure, exit 3.
_USAGE_ERRORS = (DomainError, OutOfDomain, BadParams, UnknownName,
                 NotAvailable, EpsilonBelowResolution, OSError)

# Catalog parameters exposed as flags.  Their strings go to
# `catalog.make`, which parses them with the library's own rule.
_CATALOG_FLAGS = ("theta0", "order", "c", "k", "l_minus", "l_plus",
                  "base", "point", "value")

# Longest schedule accepted: the limit tableau takes time in its square.
# Every schedule route holds at most about 32 bytes per entry and node,
# so one cap on entries x nodes serves all; at 32 entries on 2^20 nodes
# jobs peak at 1.1-1.2 GB (shrinking windows) and 0.85 GB (radial).
_MAX_SCHEDULE = 64
_MAX_WORK = 32 * formats.MAX_SIZE


def _float_list(text: str):
    try:
        vals = tuple(float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma list of numbers: "
                                         f"{text!r}") from None
    return vals


def _schedule(text: str):
    vals = _float_list(text)
    if len(vals) > _MAX_SCHEDULE:
        raise argparse.ArgumentTypeError(f"at most {_MAX_SCHEDULE} entries, "
                                         f"got {len(vals)}")
    return vals


class _Parser(argparse.ArgumentParser):
    """Usage errors as one line, `circlecomb <cmd>: <message>`, exit 2;
    sub-parsers inherit it."""

    def error(self, message):
        self.exit(2, f"{self.prog}: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="circlecomb",
        description="Window-average filtering, classification and combing "
                    "of periodic data.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="coefficients of a grid or a "
                                        "catalog entry")
    p.add_argument("--catalog", help="catalog entry name")
    for key in _CATALOG_FLAGS:
        p.add_argument(f"--{key.replace('_', '-')}", dest=key)
    p.add_argument("--input", help="grid CSV to integrate")
    p.add_argument("--n", type=int, default=DEFAULT_N)
    p.add_argument("--output", help="coefficient JSON path (default stdout)")

    p = sub.add_parser("filter", help="window-average a coefficient JSON "
                                      "or a grid CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--method", choices=["multiplier", "kernel"])
    p.add_argument("--domain", type=_float_list,
                   help="a,b: treat the grid as interval data (eps becomes "
                        "physical)")
    p.add_argument("--output", required=True)

    p = sub.add_parser("classify", help="combed/ragged report for a grid "
                                        "(or certificate for coefficients)")
    p.add_argument("--input", required=True)
    p.add_argument("--eps-schedule", dest="eps_schedule", type=_schedule)
    p.add_argument("--tol", type=float)
    p.add_argument("--output", help="report JSON path (default stdout)")

    p = sub.add_parser("comb", help="compute the limit function on a grid")
    p.add_argument("--input", required=True)
    p.add_argument("--method", required=True,
                   choices=["filter-limit", "fourier", "disk"])
    p.add_argument("--grid", type=int, help="output grid size "
                                            "(default: input size)")
    p.add_argument("--n", type=int,
                   help="truncation order for fourier/disk on grid input")
    p.add_argument("--eps-schedule", dest="eps_schedule", type=_schedule)
    p.add_argument("--rho-schedule", dest="rho_schedule", type=_schedule,
                   help="radii increasing toward 1 for the disk route")
    p.add_argument("--output", required=True)

    p = sub.add_parser("eval", help="evaluate coefficients on a ring or "
                                    "extrapolate to the boundary")
    p.add_argument("--input", required=True, help="coefficient JSON")
    p.add_argument("--rho", type=float)
    p.add_argument("--rho-schedule", dest="rho_schedule", type=_schedule)
    p.add_argument("--grid", type=int, default=256)
    p.add_argument("--domain", type=_float_list,
                   help="a,b: tag the output grid as interval data")
    p.add_argument("--output", required=True)

    return parser


def _check_size(flag, value, least):
    """DomainError unless `value` is unset or lies in [least, MAX_SIZE]."""
    cap = formats.MAX_SIZE
    if value is not None and not least <= value <= cap:
        raise DomainError(f"{flag} must lie in [{least}, {cap}], got {value}")


def _check_work(flag, schedule, what, nodes):
    """DomainError when `schedule` over `nodes` nodes exceeds _MAX_WORK
    entries x nodes; `flag` and `what` name their sources."""
    if schedule is not None and len(schedule) * nodes > _MAX_WORK:
        raise DomainError(f"{flag} with {len(schedule)} entries on {what} of "
                          f"{nodes} nodes exceeds {_MAX_WORK} entries x nodes")


def _check_output(path, sidecar):
    """OSError, as `open` would raise it, unless `path` (and `<path>.json`
    when `sidecar`) can be opened for writing: its directory exists and
    is writable, its name fits the directory's name limit, and an
    existing file (or device) is writable.  With a sidecar, DomainError
    for an existing target that is no regular file: a grid on a device
    would leave its sidecar beside the device, and a pipe blocks the
    write.  Creates nothing."""
    folder = os.path.dirname(path) or os.curdir
    if not os.path.isdir(folder):
        code = errno.ENOTDIR if os.path.exists(folder) else errno.ENOENT
        raise OSError(code, os.strerror(code), folder)
    limit = os.pathconf(folder, "PC_NAME_MAX")
    for target in (path, path + ".json") if sidecar else (path,):
        base = os.path.basename(target)
        if len(os.fsencode(base)) > limit:
            raise OSError(errno.ENAMETOOLONG,
                          os.strerror(errno.ENAMETOOLONG), target)
        if os.path.isdir(target):
            raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), target)
        if sidecar and os.path.exists(target) and not os.path.isfile(target):
            raise DomainError(f"{target}: not a regular file")
        if not (os.access(target, os.W_OK) if os.path.exists(target)
                else os.access(folder, os.W_OK | os.X_OK)):
            raise OSError(errno.EACCES, os.strerror(errno.EACCES), target)


def _given(args, flags) -> dict:
    """The `flags` the user set.  Only these are forwarded, so defaults
    stay in the module that runs them, and the parser loads none."""
    return {key: getattr(args, key) for key in flags
            if getattr(args, key, None) is not None}


def _refuse_unread(args, flags, route):
    """DomainError when the user set any of `flags`, which `route` never
    reads: a flag silently ignored would pass for one that took effect."""
    unread = [f"--{key.replace('_', '-')}" for key in _given(args, flags)]
    if unread:
        raise DomainError(f"{', '.join(unread)} not read by {route}")


def _is_json(path: str) -> bool:
    return str(path).lower().endswith(".json")


def _write_doc(chunks, path):
    """Serialized text `chunks` to `path`, or to stdout without one."""
    if path:
        formats.save_text(path, chunks)
    else:
        sys.stdout.writelines(chunks)
        sys.stdout.write("\n")


def cmd_spectrum(args) -> int:
    if (args.catalog is None) == (args.input is None):
        raise DomainError("spectrum needs exactly one of --catalog "
                          "and --input")
    _check_size("--n", args.n, 1)
    if args.catalog is not None:
        from .catalog import make
        entry = make(args.catalog, **_given(args, _CATALOG_FLAGS))
        seq = entry.coefficients(args.n)
    else:
        _refuse_unread(args, _CATALOG_FLAGS, "spectrum --input")
        # Interval data is periodized: its seam jump becomes one more
        # piece of the interpolant.
        seq = grid_coefficients(formats.read_grid(args.input).values,
                                args.n)
    # The head and the tail are made before the first chunk goes out.
    _write_doc(formats.coefficient_chunks(seq), args.output)
    return 0


def cmd_filter(args) -> int:
    if _is_json(args.input):
        _refuse_unread(args, ("domain",), "filtering coefficient JSON")
        if args.method == "kernel":
            raise DomainError("kernel filtering needs grid input; "
                              "coefficient JSON uses --method multiplier")
        from .realfilter import multiplier_filter
        seq = formats.load_coefficients(args.input)
        formats.save_coefficients(args.output,
                                  multiplier_filter(seq, args.eps))
        return 0
    if args.method == "multiplier":
        raise DomainError("multiplier filtering needs coefficient JSON "
                          "input; grid CSV uses --method kernel")
    grid = formats.read_grid(args.input)
    if args.domain is not None:
        grid = replace(grid, domain=check_interval(args.domain, "--domain"))
    if grid.domain is not None:
        from .rescale import filter_physical_grid
        out = filter_physical_grid(grid, args.eps)
    else:
        from .realfilter import kernel_filter_grid
        out = kernel_filter_grid(grid, args.eps)
    formats.write_grid(args.output, out)
    return 0


def cmd_classify(args) -> int:
    from . import classify
    if _is_json(args.input):
        _refuse_unread(args, ("eps_schedule", "tol"),
                       "classifying coefficient JSON")
        cert = classify.classify_coefficients(
            formats.load_coefficients(args.input))
        report = classify.certificate_report(cert)
    else:
        from .realfilter import grid_evaluator
        grid = formats.read_grid(args.input)
        _check_work("--eps-schedule", args.eps_schedule, "the input grid",
                    grid.n)
        report = classify.classify_pointwise(
            grid_evaluator(grid), n_grid=grid.n,
            **_given(args, ("eps_schedule", "tol")))
    _write_doc(formats.report_chunks(report), args.output)
    return 0


def _deltas_from_rhos(rhos) -> tuple:
    deltas = tuple(1.0 - r for r in rhos)
    if not all(0 < d < 1 for d in deltas):
        raise DomainError("radii must lie strictly inside (0, 1)")
    return deltas


def cmd_comb(args) -> int:
    from . import classify
    _refuse_unread(args, {"filter-limit": ("rho_schedule", "n"),
                          "fourier": ("eps_schedule", "rho_schedule"),
                          "disk": ("eps_schedule",)}[args.method],
                   f"comb --method {args.method}")
    _check_size("--n", args.n, 1)
    _check_size("--grid", args.grid, 2)
    if _is_json(args.input):
        _refuse_unread(args, ("n",), "comb on coefficient JSON")
        if args.method == "filter-limit":
            raise DomainError("filter-limit combing needs grid input")
        seq, grid = formats.load_coefficients(args.input), None
    else:
        seq, grid = None, formats.read_grid(args.input)
    n_grid = args.grid if args.grid is not None else \
        (grid.n if grid is not None else 256)
    what = "--grid" if args.grid is not None else "the output grid"
    _check_work("--eps-schedule", args.eps_schedule, what, n_grid)
    _check_work("--rho-schedule", args.rho_schedule, what, n_grid)
    singulars = None if grid is None else grid.singular_points
    if seq is None and args.method != "filter-limit":
        if grid.domain is not None:
            raise NonIntegrableInput("interval data has no Fourier series: "
                                     "its seam at theta=-pi is not "
                                     "integrable")
        seq = grid_coefficients(grid.values, **_given(args, ("n",)))

    if args.method == "filter-limit":
        from .realfilter import grid_evaluator
        out = classify.comb_by_filter_limit(grid_evaluator(grid), n_grid,
                                            **_given(args, ("eps_schedule",)))
    elif args.method == "fourier":
        result = classify.comb_from_coefficients(
            seq, n_grid, singular_points=singulars)
        out = result.grid
        if result.non_convergent:
            out = replace(out, note=out.note + " NonConvergent")
    else:
        deltas = None if args.rho_schedule is None \
            else _deltas_from_rhos(args.rho_schedule)
        out = classify.comb_by_disk(seq, n_grid, delta_schedule=deltas,
                                    singular_points=singulars)
    formats.write_grid(args.output, out)
    return 0


def cmd_eval(args) -> int:
    if (args.rho is None) == (args.rho_schedule is None):
        raise DomainError("eval needs exactly one of --rho and "
                          "--rho-schedule")
    from .disk import boundary_value_grid, ring_grid
    _check_size("--grid", args.grid, 2)
    _check_work("--rho-schedule", args.rho_schedule, "--grid", args.grid)
    domain = None if args.domain is None \
        else check_interval(args.domain, "--domain")
    seq = formats.load_coefficients(args.input)
    if args.rho is not None:
        values = ring_grid(seq, args.rho, args.grid)
        defined = np.ones(args.grid, dtype=bool)
        note = f"ring values at rho={args.rho:.17g}"
    else:
        deltas = _deltas_from_rhos(args.rho_schedule)
        values, _, defined = boundary_value_grid(seq, args.grid, deltas)
        note = "boundary values by radial extrapolation"
    formats.write_grid(args.output, GridFunction(
        values=values, defined=defined, note=note, domain=domain))
    return 0


_DISPATCH = {
    "spectrum": cmd_spectrum,
    "filter": cmd_filter,
    "classify": cmd_classify,
    "comb": cmd_comb,
    "eval": cmd_eval,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    with warnings.catch_warnings():
        # One line per warning, as every other message: no file path or
        # source line of the library.
        warnings.showwarning = lambda message, category, *_: print(
            f"circlecomb {args.command}: {category.__name__}: {message}",
            file=sys.stderr)
        try:
            if args.output:
                # Every grid is written with its `<output>.json` sidecar.
                _check_output(args.output, sidecar=args.command in (
                    "comb", "eval") or (args.command == "filter"
                                        and not _is_json(args.input)))
            return _DISPATCH[args.command](args)
        except _USAGE_ERRORS as exc:
            print(f"circlecomb {args.command}: {exc}", file=sys.stderr)
            return 2
        except (CircleCombError, MemoryError) as exc:
            print(f"circlecomb {args.command}: numeric failure: "
                  f"{str(exc) or type(exc).__name__}", file=sys.stderr)
            return 3


if __name__ == "__main__":
    sys.exit(main())
