"""Traced runner for one CLI job.

    python3 bench/trace_child.py SPANS_JSON -- <circlecomb cli arguments>

Wraps every public function of every circlecomb module, at every
circlecomb.* module attribute bound to it, then calls cli.main(argv).
Spans stay in memory and are written to SPANS_JSON when the job ends:
{"names": [...], "spans": [[name, start, end, parent, failed,
rss_growth_kb, work], ...]}, where parent is the index of the enclosing
span (-1 at the top) and work is the call's [numerator, denominator]
work count computed from its arguments, result or files ([0, 0] where
none is defined).  The exit code is the CLI's.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import os
import pkgutil
import resource
import sys
import time


def _size(path):
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


# Work counts per traced function, from (args, kwargs, result), as a
# [numerator, denominator] pair: the denominator is 1 for plain counts.
COUNTS = {
    "spectrum.compute_coefficients":
        lambda a, k, r: [_arg(a, k, 1, "n", 256), 1],
    "spectrum.partial_sum_grid":
        lambda a, k, r: [(_arg(a, k, 2, "m") or a[0].n) * int(a[1]), 1],
    "disk.eval_ring":
        lambda a, k, r: [a[0].n * len(r), 1],
    "disk.boundary_value_grid":
        lambda a, k, r: [int(r[2].sum()), len(r[2])],
    "realfilter.kernel_filter_grid":
        lambda a, k, r: [a[1] * a[0].n / (2.0 * math.pi), 1],
    "classify.classify_pointwise":
        lambda a, k, r: [sum(n.verdict != "undefined" for n in r.nodes),
                         len(r.nodes)],
    "classify.comb_by_filter_limit":
        lambda a, k, r: [int(r.defined.sum()), r.n],
    "formats.read_grid": lambda a, k, r: [_size(a[0]), 1],
    "formats.load_json": lambda a, k, r: [_size(a[0]), 1],
    "formats.write_grid": lambda a, k, r: [_size(a[0]), 1],
    "formats.save_json": lambda a, k, r: [_size(a[0]), 1],
}


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = []
        self.stack = []

    def wrap(self, fn, name):
        index = len(self.names)
        self.names.append(name)
        count = COUNTS.get(name)
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            failed = 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                failed = 0
                return result
            finally:
                t1 = clock()
                stack.pop()
                rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                work = count(args, kwargs, result) if count and not failed \
                    else [0, 0]
                spans[sid] = [index, t0, t1, parent, failed, rss - rss0, work]

        return traced

    def install(self, package):
        """Replace each public function at every binding in the package."""
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)]
        owners = {}
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__
                        and obj.__name__ == attr):
                    owners[obj] = f"{short}.{attr}"
        wrappers = {fn: self.wrap(fn, name) for fn, name in owners.items()}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh)


def main():
    spans_path = sys.argv[1]
    if sys.argv[2] != "--":
        sys.exit("usage: trace_child.py SPANS_JSON -- <cli args>")
    import circlecomb
    tracer = Tracer()
    tracer.install(circlecomb)
    from circlecomb import cli
    try:
        code = cli.main(sys.argv[3:])
    finally:
        tracer.dump(spans_path)
    sys.exit(code)


if __name__ == "__main__":
    main()
