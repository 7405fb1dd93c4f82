"""The command-line contract, walked over every flag the parser knows.

Each case starts from a small valid command line of one subcommand,
sets one of its flags to one extreme value and runs `cli.main`
in-process.  Whatever the value, the run exits 0, 2 or 3, raises
nothing else, prints one stderr line per failure or per warning, and
leaves no output file behind when it fails.
"""

import contextlib
import io
import os
import re
import tempfile

import numpy as np
import pytest

from circlecomb import cli, formats
from circlecomb.catalog import make
from circlecomb.formats import save_coefficients, write_grid
from circlecomb.spectrum import GridFunction, grid_nodes

CAP = formats.MAX_SIZE
VALUES = ["nan", "inf", "-inf", "1e308", "-1e308", "0", "-1",
          # The longest schedule accepted, strictly decreasing, and one
          # far past it.
          ",".join("%.17g" % (0.5 * 0.9 ** k) for k in range(64)),
          ",".join(["0.5"] * 100000),
          str(CAP), str(CAP + 1)]

# A warning's line after the `circlecomb <cmd>: ` prefix; a failing run
# may print some before its one failure line.
WARNING = re.compile(r"\w+Warning: ")

# Command lines the walk starts from; `{grid}` is a 16-node grid CSV and
# `{seq}` 16 terms of a square wave.
BASES = [
    ["spectrum", "--catalog", "square_wave", "--n", "16"],
    ["spectrum", "--input", "{grid}", "--n", "16"],
    ["filter", "--input", "{grid}", "--eps", "0.5"],
    ["filter", "--input", "{seq}", "--eps", "0.5"],
    ["classify", "--input", "{grid}"],
    ["classify", "--input", "{seq}"],
    ["comb", "--input", "{grid}", "--method", "filter-limit"],
    ["comb", "--input", "{grid}", "--method", "fourier"],
    ["comb", "--input", "{grid}", "--method", "disk"],
    ["comb", "--input", "{seq}", "--method", "disk"],
    ["eval", "--input", "{seq}", "--rho", "0.5", "--grid", "16"],
    ["eval", "--input", "{seq}", "--rho-schedule", "0.9,0.95,0.975",
     "--grid", "16"],
]

# Runs the size cap admits but that would cost this test as much as the
# rest together: 2^20 coefficient terms in JSON (63 MB, about 1.5 s) and
# shrinking windows on 2^20 nodes (305 MB, about 2 s).  One past the cap
# still runs on both.
COSTLY = {("spectrum", "--n", str(CAP)), ("filter-limit", "--grid", str(CAP))}


def flags(command):
    """Every optional flag of `command`, as the parser defines it."""
    sub = next(a for a in cli._build_parser()._actions
               if a.dest == "command").choices[command]
    return [a.option_strings[0] for a in sub._actions
            if a.option_strings and a.dest != "help"]


def with_flag(base, flag, value):
    """`base` with `flag` set to `value`, replacing any value it had."""
    argv = list(base)
    if flag in argv:
        argv[argv.index(flag) + 1] = value
    else:
        argv += [flag, value]
    return argv


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("contract")
    write_grid(d / "g.csv", GridFunction(np.cos(grid_nodes(16)),
                                         np.ones(16, bool)))
    save_coefficients(d / "c.json", make("square_wave").coefficients(16))
    return {"grid": str(d / "g.csv"), "seq": str(d / "c.json")}


def run(argv):
    """Exit code, stdout and stderr of `cli.main(argv)` in-process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:       # the parser's own exit
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("base", BASES, ids=map(" ".join, BASES))
def test_every_flag_at_every_extreme_keeps_the_contract(inputs, base):
    base = [a.format(**inputs) for a in base] + ["--output", "out"]
    route = base[4] if base[0] == "comb" else base[0]
    broken = []
    for flag in flags(base[0]):
        for value in VALUES:
            if (route, flag, value) in COSTLY:
                continue
            argv = with_flag(base, flag, value)
            output = argv[argv.index("--output") + 1]
            with tempfile.TemporaryDirectory() as cwd:
                here = os.getcwd()
                os.chdir(cwd)
                try:
                    code, out, err = run(argv)
                    left = [p for p in (output, output + ".json")
                            if os.path.exists(p)]
                finally:
                    os.chdir(here)
            prefix = f"circlecomb {base[0]}: "
            lines = err.splitlines()
            failures = [line for line in lines
                        if not WARNING.match(line, len(prefix))]
            if code not in (0, 2, 3) or "Traceback" in err \
                    or not all(line.startswith(prefix) for line in lines) \
                    or code and (len(failures) != 1 or out or left) \
                    or not code and failures:
                broken.append((flag, value[:40], code, err[:200], left))
    assert not broken, "\n".join(map(str, broken))


def test_the_walk_starts_from_every_subcommand():
    commands = next(a for a in cli._build_parser()._actions
                    if a.dest == "command").choices
    assert {b[0] for b in BASES} == set(commands)


@pytest.mark.parametrize("base", BASES[1:], ids=map(" ".join, BASES[1:]))
def test_inputs_past_the_byte_bound_exit_2_before_parsing(tmp_path, base):
    # 100 bytes per entry lie past the longest row or term the writers
    # emit; the sparse file takes no disk space and is never read.
    sparse = {"grid": str(tmp_path / "g.csv"), "seq": str(tmp_path / "c.json")}
    for path in sparse.values():
        with open(path, "wb"):
            pass
        os.truncate(path, 100 * CAP)
    argv = [a.format(**sparse) for a in base]
    code, out, err = run(argv + ["--output", str(tmp_path / "out")])
    assert code == 2 and out == ""
    path = argv[argv.index("--input") + 1]
    assert err.startswith(f"circlecomb {base[0]}: {path}: {100 * CAP} "
                          "bytes exceed ")
    assert err.endswith(f", the largest file of {CAP} "
                        + ("terms\n" if path.endswith(".json") else "rows\n"))
    assert err.count("\n") == 1
    assert sorted(os.listdir(tmp_path)) == ["c.json", "g.csv"]


@pytest.mark.parametrize("base", BASES[1:], ids=map(" ".join, BASES[1:]))
def test_inputs_that_are_no_regular_file_exit_2_unread(tmp_path, base):
    # A pipe or a device has no size to hold to the budget, and counting
    # its "," would drain it or, on /dev/zero, never end.
    links = {"grid": str(tmp_path / "g.csv"), "seq": str(tmp_path / "c.json")}
    for path in links.values():
        os.symlink(os.devnull, path)
    argv = [a.format(**links) for a in base]
    code, out, err = run(argv + ["--output", str(tmp_path / "out")])
    path = argv[argv.index("--input") + 1]
    assert (code, out) == (2, "")
    assert err == f"circlecomb {base[0]}: {path}: not a regular file\n"
    assert sorted(os.listdir(tmp_path)) == ["c.json", "g.csv"]


def test_a_sidecar_that_is_no_regular_file_exits_2_unread(tmp_path, inputs):
    grid = tmp_path / "g.csv"
    grid.write_bytes(open(inputs["grid"], "rb").read())
    side = f"{grid}.json"
    os.symlink(os.devnull, side)
    code, out, err = run(["filter", "--input", str(grid), "--eps", "0.5",
                          "--output", str(tmp_path / "out.csv")])
    assert (code, out) == (2, "")
    assert err == f"circlecomb filter: {side}: not a regular file\n"
    assert sorted(os.listdir(tmp_path)) == ["g.csv", "g.csv.json"]


@pytest.mark.parametrize("excess", [0, 1])
def test_a_sidecar_past_the_byte_bound_exits_2_before_parsing(
        tmp_path, inputs, excess):
    # The head of a coefficient document and one longest `%.17g` cell
    # with its ", " per singular point, for 2^20 of them.  A sidecar at
    # the bound is parsed (and this empty one refused as JSON); one byte
    # more is refused by its size.
    bound = 4096 + CAP * len("%.17g, " % -2.2250738585072014e-308)
    grid = tmp_path / "g.csv"
    grid.write_bytes(open(inputs["grid"], "rb").read())
    side = f"{grid}.json"
    with open(side, "wb"):
        pass
    os.truncate(side, bound + excess)
    code, out, err = run(["filter", "--input", str(grid), "--eps", "0.5",
                          "--output", str(tmp_path / "out.csv")])
    assert code == 2 and out == "" and err.count("\n") == 1
    if excess:
        assert err == (f"circlecomb filter: {side}: {bound + 1} bytes "
                       f"exceed {bound}, the largest file of {CAP} "
                       "singular points\n")
    else:
        assert err.startswith(f"circlecomb filter: {side}: not valid JSON")
    assert sorted(os.listdir(tmp_path)) == ["g.csv", "g.csv.json"]
