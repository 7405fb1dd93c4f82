"""Layering guards.

No module reaches into another module's private names.  A name with a
leading underscore belongs to its own module.  Sibling modules may
import the private helper modules `_quad` and `_extrap` themselves, and
use their public names, but never an `_underscore` name of any package
module: neither by `from .mod import _name` nor by reading `mod._name`
off an imported module.

Each CLI route loads only the modules it runs, and the package
re-exports its public names lazily, so `import circlecomb` loads none.
"""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import circlecomb
from circlecomb.catalog import make
from circlecomb.formats import save_coefficients, write_grid
from circlecomb.spectrum import GridFunction, grid_nodes

PACKAGE_DIR = Path(circlecomb.__file__).parent


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def violations(source, filename):
    """(filename, line, text) for every private cross-module access."""
    tree = ast.parse(source, filename)
    found = []
    modules = set()             # local names bound to package modules
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            top, _, inner = (node.module or "").partition(".")
            if node.level:
                inner = node.module
            elif top != "circlecomb":
                continue
            for alias in node.names:
                if not inner:
                    modules.add(alias.asname or alias.name)
                elif _private(alias.name):
                    found.append((filename, node.lineno,
                                  f"from {inner} import {alias.name}"))
        elif isinstance(node, ast.Import):
            modules.update(alias.asname for alias in node.names
                           if alias.name.startswith("circlecomb.")
                           and alias.asname)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr) \
                and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            found.append((filename, node.lineno,
                          f"{node.value.id}.{node.attr}"))
    return found


def test_guard_sees_both_forms():
    src = ("from . import _quad\n"
           "from .disk import _horner, eval_ring\n"
           "from ._extrap import neville_to_zero\n"
           "from circlecomb.realfilter import _stencil\n"
           "import circlecomb.spectrum as sp\n"
           "x = _quad._NODES(_quad.integrate, sp._CHUNK, sp.sinc)\n")
    assert violations(src, "probe.py") == [
        ("probe.py", 2, "from disk import _horner"),
        ("probe.py", 4, "from realfilter import _stencil"),
        ("probe.py", 6, "_quad._NODES"),
        ("probe.py", 6, "sp._CHUNK"),
    ]


def test_no_module_uses_another_modules_private_names():
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        found.extend(violations(path.read_text(encoding="utf-8"),
                                path.name))
    assert found == []


# --------------------------------------------------- modules per route

# Runs one CLI job, then reports its exit code, the package modules it
# loaded and whether numpy.polynomial was loaded.
PROBE = """
import json, sys
from circlecomb import cli
code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(m.partition(".")[2] for m in sys.modules
                               if m.startswith("circlecomb.")),
                  "numpy.polynomial" in sys.modules]))
"""

# Every route reads or writes through `formats`, which needs `spectrum`.
SHARED = {"cli", "errors", "formats", "spectrum"}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("routes")
    th = grid_nodes(64)
    write_grid(d / "grid.csv", GridFunction(np.sign(th), np.ones(64, bool),
                                            singular_points=(0.0, -np.pi)))
    save_coefficients(d / "square.json", make("square_wave").coefficients(32))
    return d


@pytest.mark.parametrize("argv, extra", [
    (["spectrum", "--catalog", "square_wave", "--n", "16"], {"catalog"}),
    (["spectrum", "--input", "{d}/grid.csv", "--output", "{d}/s.json"],
     set()),
    (["filter", "--input", "{d}/grid.csv", "--method", "kernel", "--eps",
      "0.3", "--output", "{d}/f.csv"], {"realfilter"}),
    (["classify", "--input", "{d}/grid.csv", "--output", "{d}/c.json"],
     {"classify", "realfilter", "_extrap"}),
    (["comb", "--input", "{d}/grid.csv", "--method", "filter-limit",
      "--output", "{d}/l.csv"], {"classify", "realfilter", "_extrap"}),
    (["comb", "--input", "{d}/square.json", "--method", "fourier",
      "--output", "{d}/r.csv"],
     {"catalog", "classify", "realfilter", "_extrap"}),
    (["eval", "--input", "{d}/square.json", "--rho", "0.5", "--output",
      "{d}/e.csv"], {"disk", "_extrap"}),
    (["eval", "--input", "{d}/square.json", "--rho", "0.5", "--domain",
      "0,1", "--output", "{d}/i.csv"], {"disk", "_extrap"}),
], ids=["spectrum-catalog", "spectrum-input", "filter-kernel", "classify",
        "comb-filter-limit", "comb-fourier-tagged", "eval-rho",
        "eval-rho-domain"])
def test_each_route_loads_only_what_it_runs(inputs, argv, extra):
    argv = [a.format(d=inputs) for a in argv]
    p = subprocess.run([sys.executable, "-c", PROBE, *argv],
                       capture_output=True, text=True, check=True)
    code, modules, polynomial = json.loads(p.stdout.splitlines()[-1])
    assert code == 0
    assert set(modules) == SHARED | extra
    assert not polynomial


# ------------------------------------------------- lazy package exports

# The public names as the package exported them eagerly, by the module
# that exported each one, less those deleted since with no caller in the
# package; the submodules themselves are public too.
EXPORTED = {
    "catalog": "CatalogEntry exact_filtered make names",
    "classify": "ClassificationReport CoefficientCertificate "
                "FourierCombResult NodeReport certificate_report "
                "classify_coefficients classify_pointwise comb_by_disk "
                "comb_by_filter_limit comb_from_coefficients",
    "disk": "DiskPoint InnerAnalyticFunction arc_filter_eval "
            "boundary_value_grid complex_filter eval_ring evaluate "
            "from_coefficients log_derivative log_primitive",
    "errors": "BadParams CircleCombError DomainError EpsilonBelowResolution "
              "NoConvergence NonIntegrableInput NotAvailable OutOfDomain "
              "QuadratureFailure UndefinedHere UnknownName",
    "formats": "coefficients_from_doc coefficients_to_doc dumps_json "
               "load_coefficients read_grid report_to_doc save_coefficients "
               "write_grid",
    "realfilter": "DEFAULT_EPS_SCHEDULE GridFunction filter_limit "
                  "filtered_derivative_limit grid_evaluator "
                  "kernel_filter_eval kernel_filter_grid multiplier_filter",
    "rescale": "IntervalMap filter_physical_grid pullback transport_filter",
    "spectrum": "CoefficientSequence EvaluatorFunction SingularPoint "
                "angular_derivative circle_distance compute_coefficients "
                "grid_nodes partial_sum_eval partial_sum_grid wrap_angle",
}
PUBLIC = sorted([*EXPORTED] + [name for names in EXPORTED.values()
                               for name in names.split()])


def test_public_names_are_unchanged():
    assert len(PUBLIC) == 73
    assert circlecomb.__all__ == PUBLIC


def test_every_name_resolves_to_its_modules_object():
    for module, names in EXPORTED.items():
        owner = importlib.import_module(f"circlecomb.{module}")
        assert getattr(circlecomb, module) is owner
        for name in names.split():
            assert getattr(circlecomb, name) is getattr(owner, name), name


def test_star_import_and_dir_list_every_name():
    namespace = {}
    exec("from circlecomb import *", namespace)
    assert set(PUBLIC) <= set(namespace)
    assert set(PUBLIC) <= set(dir(circlecomb))


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        circlecomb.no_such_name


def test_bare_import_loads_no_submodule():
    p = subprocess.run(
        [sys.executable, "-c", "import sys, circlecomb; print(sorted("
         "m for m in sys.modules if m.startswith('circlecomb.')))"],
        capture_output=True, text=True, check=True)
    assert p.stdout.strip() == "[]"
