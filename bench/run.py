"""CLI-level benchmark of circlecomb.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the real CLI (`python -m circlecomb.cli ...`) as child processes in
a closed loop with one client: the next job is spawned only after the
previous child has been reaped, so every job pays interpreter start and
package import as a user does.

This process only orchestrates.  Input generation (gen.py), the timed
loop (loop.py, which must stay lean), output checking (oracle.py) and
traced jobs (trace_child.py) each run in their own process.

With --trace 0 the last stdout line carries the end-to-end metrics;
with --trace 1 each job also runs once under trace_child.py per round
and the line carries the per-layer metrics.  Everything else (the
environment, per-job timings, input sha256s, oracle errors) goes to
.bench_results/<workload>-seed<N>-trace<T>.json.  The exit code is 0
only when every job passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import sys

from loop import spawn

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
PYTHON = sys.executable
WORKLOADS = ("grid-sampled", "coeff-series", "big-grid-io")
# ru_maxrss of a bare `python -c pass` varies by a few pages run to run.
RSS_SLACK_KB = 2048
TAIL_BEYOND = 10

# The package's modules, one layer each, and the functions whose spans
# are reported; True marks those that also report how far ru_maxrss rose
# inside them (the ones that allocate in proportion to their input).
LAYERS = ("cli", "formats", "spectrum", "disk", "realfilter", "_quad",
          "_extrap", "classify", "rescale", "catalog")
TRACED = {
    "cli.main": True,
    "formats.read_grid": True, "formats.write_grid": True,
    "formats.load_coefficients": True, "formats.save_coefficients": True,
    "formats.save_json": False, "formats.report_to_doc": False,
    "spectrum.compute_coefficients": True, "spectrum.partial_sum_grid": True,
    "disk.eval_ring": True, "disk.boundary_value_grid": True,
    "realfilter.kernel_filter_eval": False,
    "realfilter.kernel_filter_grid": True,
    "realfilter.multiplier_filter": False,
    "realfilter.extrapolated_limit": False,
    "realfilter.grid_evaluator": False,
    "_quad.integrate": False,
    "_extrap.neville_to_zero": False, "_extrap.mass_signature": False,
    "classify.classify_pointwise": True,
    "classify.comb_by_filter_limit": True,
    "classify.comb_from_coefficients": True,
    "classify.comb_by_fourier": False, "classify.comb_by_disk": True,
    "classify.classify_coefficients": False,
    "rescale.filter_physical_grid": True,
    "rescale.grid_pullback_evaluator": False,
    "catalog.make": False,
}

END_TO_END_UNITS = {"setup_s": "s", "job_p50_s": "s", "job_tail_s": "s",
                    "jobs_per_s": "1/s", "cpu_s_per_job": "s",
                    "peak_rss_mb": "MB"}

# A bare interpreter spawning `python -c pass`: the control child's RSS
# when its parent holds nothing.
_BARE_PROBE = (
    "import os, sys\n"
    "pid = os.posix_spawn(sys.executable, [sys.executable, '-c', 'pass'],"
    " dict(os.environ))\n"
    "print(os.wait4(pid, 0)[2].ru_maxrss)\n")


def _read(path):
    with open(path, encoding="utf-8", errors="replace") as fh:
        return fh.read()


# ------------------------------------------------------------- statistics

def tail(values, beyond=TAIL_BEYOND):
    """(value, percentile): the highest percentile of `values` that still
    has at least `beyond` samples above it, or (max, 100) when there are
    too few samples for one."""
    xs = sorted(values)
    n = len(xs)
    if n <= beyond:
        return xs[-1], 100.0
    return xs[n - beyond - 1], 100.0 * (n - beyond) / n


def self_times(spans):
    """Self time of every span: its duration minus its children's.

    `spans` holds [name, start, end, parent, ...] rows, parent being the
    index of the enclosing span or -1."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def aggregate(docs, rounds):
    """Per-function totals over traced jobs, per pass over the job list.

    `docs` are trace_child.py span files; returns {name: {"calls",
    "self_s", "fail", "rss_growth_kb", "work"}}, `work` being the summed
    [numerator, denominator] of the function's work count."""
    out = {}
    for doc in docs:
        names = doc["names"]
        spans = doc["spans"]
        for span, own in zip(spans, self_times(spans)):
            row = out.setdefault(names[span[0]], {
                "calls": 0, "self_s": 0.0, "fail": 0, "rss_growth_kb": 0,
                "work": [0, 0]})
            row["calls"] += 1
            row["self_s"] += own
            row["fail"] += span[4]
            row["rss_growth_kb"] = max(row["rss_growth_kb"], span[5])
            row["work"] = [row["work"][0] + span[6][0],
                           row["work"][1] + span[6][1]]
    for row in out.values():
        for key in ("calls", "self_s", "fail"):
            row[key] /= rounds
        row["work"] = [w / rounds for w in row["work"]]
    return out


def per_layer(funcs, warnings, traced_p50, untraced_p50):
    """The per-layer metrics reported with --trace 1, as {name: (value,
    unit)}.  Metric names drop the leading underscore of private modules.
    Self time is given as a share of the time spent inside cli.main, which
    trace.cli_main_s holds per pass over the job list."""
    empty = {"calls": 0, "self_s": 0.0, "fail": 0, "rss_growth_kb": 0,
             "work": [0, 0]}

    def f(name):
        return funcs.get(name, empty)

    def div(a, b):
        return a / b if b else 0.0

    main_s = sum(row["self_s"] for row in funcs.values())
    m = {}
    for layer in LAYERS:
        own = sum(row["self_s"] for name, row in funcs.items()
                  if name.startswith(layer + "."))
        m[f"{layer.lstrip('_')}.self_share"] = (div(own, main_s), "1")
    for name, rss in TRACED.items():
        row = f(name)
        key = name.lstrip("_")
        m[f"{key}.calls"] = (row["calls"], "count")
        m[f"{key}.self_share"] = (div(row["self_s"], main_s), "1")
        m[f"{key}.fail"] = (row["fail"], "count")
        if rss:
            m[f"{key}.rss_growth_mb"] = (row["rss_growth_kb"] / 1024.0, "MB")
    nodes = (f("classify.classify_pointwise")["work"][1]
             + f("classify.comb_by_filter_limit")["work"][1])
    kfg = f("realfilter.kernel_filter_grid")
    m.update({
        "spectrum.compute_coefficients.harmonics":
            (f("spectrum.compute_coefficients")["work"][0], "count"),
        "spectrum.partial_sum_grid.terms":
            (f("spectrum.partial_sum_grid")["work"][0], "count"),
        "disk.eval_ring.terms": (f("disk.eval_ring")["work"][0], "count"),
        "disk.boundary_value_grid.defined_ratio":
            (div(*f("disk.boundary_value_grid")["work"]), "1"),
        "disk.tail_warnings": (warnings, "count"),
        "realfilter.kernel_filter_eval.per_node":
            (div(f("realfilter.kernel_filter_eval")["calls"], nodes),
             "count"),
        "realfilter.kernel_filter_grid.window_cells":
            (div(kfg["work"][0], kfg["calls"]), "count"),
        "classify.classify_pointwise.decided_ratio":
            (div(*f("classify.classify_pointwise")["work"]), "1"),
        "classify.comb_by_filter_limit.defined_ratio":
            (div(*f("classify.comb_by_filter_limit")["work"]), "1"),
        "formats.bytes_read": (f("formats.read_grid")["work"][0]
                               + f("formats.load_json")["work"][0], "B"),
        "formats.bytes_written": (f("formats.write_grid")["work"][0]
                                  + f("formats.save_json")["work"][0], "B"),
        "trace.job_p50_s": (traced_p50, "s"),
        "trace.overhead_s": (traced_p50 - untraced_p50, "s"),
        "trace.cli_main_s": (main_s, "s"),
    })
    return m


# ------------------------------------------------------------------ phases

def _child(run_env, workdir, name, *args):
    """Run one of the benchmark's own scripts; exit on failure."""
    err = os.path.join(workdir, f"{name}.err")
    wall, code, _ = spawn([PYTHON, os.path.join(BENCH, f"{name}.py"),
                           *map(str, args)], run_env, err_path=err)
    if code != 0:
        sys.exit(f"{name}.py failed:\n{_read(err)}")
    return wall


def warm_up(env):
    """One unrecorded import, which also leaves the bytecode caches
    written before anything is timed."""
    if spawn([PYTHON, "-c", "import circlecomb.cli"], env)[1] != 0:
        sys.exit("`import circlecomb.cli` failed")


def bare_rss_kb(env, workdir):
    """Largest ru_maxrss of `python -c pass` spawned by a bare parent."""
    out = os.path.join(workdir, "bare.out")
    samples = []
    for _ in range(3):
        spawn([PYTHON, "-c", _BARE_PROBE], env, out_path=out)
        samples.append(int(_read(out)))
    return max(samples)


def read_records(workdir):
    """(job records, set-up probe records, loop summary) from loop.py."""
    with open(os.path.join(workdir, "records.jsonl"), encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh]
    jobs = [r for r in rows[:-1] if "job" in r]
    probes = [r for r in rows[:-1] if "setup_s" in r]
    return jobs, probes, rows[-1]


def read_spans(workdir):
    folder = os.path.join(workdir, "spans")
    for name in sorted(os.listdir(folder)):
        with open(os.path.join(folder, name), encoding="utf-8") as fh:
            yield json.load(fh)


def end_to_end(records, loop_s, setup):
    """The end-to-end metrics of untraced job records, and the tail's
    percentile."""
    walls = [r["wall_s"] for r in records]
    tail_s, pct = tail(walls)
    return {
        "setup_s": statistics.median(setup),
        "job_p50_s": statistics.median(walls),
        "job_tail_s": tail_s,
        "jobs_per_s": len(records) / loop_s,
        "cpu_s_per_job": sum(r["cpu_s"] for r in records) / len(records),
        "peak_rss_mb": max(r["maxrss_kb"] for r in records) / 1024.0,
    }, pct


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "circlecomb", "cli.py")):
        sys.exit(f"no circlecomb sources under {os.path.join(ROOT, 'src')}")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(ROOT, ".bench_work", f"{tag}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(os.path.join(workdir, "spans"))
    try:
        return measure(args, tag, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, tag, workdir):
    src = os.path.join(ROOT, "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path
                                             else ""))
    gen_s = _child(env, workdir, "gen", "--workload", args.workload,
                   "--seed", args.seed, "--out", workdir)
    with open(os.path.join(workdir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    jobs = manifest["jobs"]
    warm_up(env)
    bare_kb = bare_rss_kb(env, workdir)
    _child(env, workdir, "loop", workdir, args.seconds, args.trace)
    records, probes, summary = read_records(workdir)
    if any(p["exit"] != 0 for p in probes):
        sys.exit("`import circlecomb.cli` failed during the loop")
    setup = [p["setup_s"] for p in probes]
    _child(env, workdir, "oracle", workdir)
    with open(os.path.join(workdir, "oracle.json"), encoding="utf-8") as fh:
        verdicts = json.load(fh)

    for rec in records:
        verdict = verdicts[jobs[rec["job"]]["id"]]
        if not verdict["ok"]:
            rec["problems"].append(f"oracle: {verdict['detail']}")
    rounds, loop_s = summary["rounds"], summary["loop_s"]
    control_kb = summary["control_rss_kb"]
    rss_ok = control_kb <= bare_kb + RSS_SLACK_KB
    plain = [r for r in records if not r["traced"]]
    failed = [r for r in records if r["problems"]]
    metrics, pct = end_to_end(plain, loop_s, setup)
    warnings = sum(r["warnings"] for r in plain)
    funcs = None
    if args.trace:
        traced = [r for r in records if r["traced"]]
        funcs = aggregate(read_spans(workdir), rounds)
        reported = per_layer(funcs,
                             sum(r["warnings"] for r in traced) / rounds,
                             statistics.median(r["wall_s"] for r in traced),
                             metrics["job_p50_s"])
    else:
        reported = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}

    n = len(plain)
    env_info = manifest["environment"]
    blas = env_info["blas"]
    inputs = hashlib.sha256(json.dumps(manifest["files"], sort_keys=True)
                            .encode()).hexdigest()
    print(f"# {tag}: {len(jobs)} jobs x {rounds} rounds in {loop_s:.2f} s "
          f"(closed loop, one client); inputs generated in {gen_s:.2f} s")
    print(f"# git {env_info['git_revision']}, src sha256 "
          f"{env_info['src_sha256'][:16]}, nproc {env_info['nproc']}, "
          f"python {env_info['python'].split()[0]}, numpy "
          f"{env_info['numpy']}, blas {blas['name']} {blas['version']} "
          f"threads {blas['threads']}; inputs sha256 {inputs[:16]}")
    print(f"setup_s        {metrics['setup_s']:.4f} s   "
          f"(median of import-only children spread over the loop, "
          f"n={len(setup)})")
    print(f"job_p50_s      {metrics['job_p50_s']:.4f} s   (n={n})")
    print(f"job_tail_s     {metrics['job_tail_s']:.4f} s   "
          f"(p{pct:.1f}, n={n}, {TAIL_BEYOND} jobs beyond)")
    print(f"jobs_per_s     {metrics['jobs_per_s']:.4f} 1/s (n={n})")
    print(f"cpu_s_per_job  {metrics['cpu_s_per_job']:.4f} s   (n={n})")
    print(f"peak_rss_mb    {metrics['peak_rss_mb']:.1f} MB  (n={n})")
    print(f"fail_ratio     {len(failed) / len(records):.4f} 1   "
          f"({len(failed)} of {len(records)} job runs)")
    print(f"disk.tail_warnings {warnings} RuntimeWarning lines in {n} jobs")
    print(f"control child RSS {control_kb} KB vs bare {bare_kb} KB: "
          f"{'ok' if rss_ok else 'REJECTED'}")
    for rec in failed:
        print(f"FAILED {jobs[rec['job']]['id']} (round {rec['round']}"
              f"{', traced' if rec['traced'] else ''}): "
              f"{'; '.join(rec['problems'])}")
    if funcs is not None:
        print(f"{'function':40s} {'calls':>9s} {'self_s':>9s} {'fail':>6s}"
              "   (per round)")
        for name, row in sorted(funcs.items(),
                                key=lambda kv: -kv[1]["self_s"]):
            print(f"{name:40s} {row['calls']:9.0f} {row['self_s']:9.4f} "
                  f"{row['fail']:6.0f}")

    ok = not failed and rss_ok
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": manifest["environment"],
        "inputs_sha256": manifest["files"],
        "rounds": rounds, "loop_s": loop_s, "setup_samples_s": setup,
        "tail_percentile": pct, "control_rss_kb": control_kb,
        "bare_rss_kb": bare_kb, "metrics": metrics,
        "fail_ratio": len(failed) / len(records), "oracle": verdicts,
        "jobs": [{"id": jobs[r["job"]]["id"], **r} for r in records],
        "functions": funcs,
    }
    results = os.path.join(ROOT, ".bench_results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{tag}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({
        "correct": ok, "attempted": len(records), "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in reported.items()}}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
