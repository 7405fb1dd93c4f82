"""The bench jobs' outputs, byte for byte, against committed digests.

`bench/gen.py` writes each workload's inputs for seeds 5 and 13; every
job then runs through `cli.main` in this process.  `tests/outputs.json`
holds the sha256 of each input file, as the manifest records it, and of
each job's exit code, stdout, stderr and output files (sidecars
included), keyed by workload, seed and job id.  A change that moves any
byte fails here; one that means to rewrites the file with
`python tests/rewrite_outputs.py` and lists every changed job.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys

from circlecomb import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
DIGESTS = os.path.join(ROOT, "tests", "outputs.json")
SEEDS = (5, 13)


def _load_gen():
    """`bench/gen.py`, loaded by path with its own directory importable,
    since it imports `closed_forms` from there."""
    spec = importlib.util.spec_from_file_location(
        "circlecomb_bench_gen", os.path.join(BENCH, "gen.py"))
    gen = importlib.util.module_from_spec(spec)
    sys.path.insert(0, BENCH)
    try:
        spec.loader.exec_module(gen)
    finally:
        sys.path.remove(BENCH)
    return gen


def _job_digest(job):
    """sha256 over the job's exit code, stdout, stderr and output files,
    run in the current directory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(job["argv"])
    h = hashlib.sha256()
    for part in (str(code), out.getvalue(), err.getvalue()):
        h.update(part.encode() + b"\0")
    for name in job["outputs"]:
        h.update(name.encode() + b"\0")
        with open(name, "rb") as fh:
            h.update(fh.read() + b"\0")
    return h.hexdigest()


def digests(workdir):
    """Generate every workload and seed under `workdir` and run its jobs:
    {"inputs": {key: {file: sha256}}, "jobs": {key/job id: sha256}}."""
    gen = _load_gen()
    inputs, jobs = {}, {}
    here = os.getcwd()
    try:
        for workload in gen.WORKLOADS:
            for seed in SEEDS:
                key = f"{workload}/{seed}"
                out = os.path.join(workdir, workload, str(seed))
                manifest = gen.generate(workload, seed, out)
                inputs[key] = manifest["files"]
                os.chdir(out)
                for job in manifest["jobs"]:
                    jobs[f"{key}/{job['id']}"] = _job_digest(job)
    finally:
        os.chdir(here)
    return {"inputs": inputs, "jobs": jobs}


def test_the_bench_jobs_keep_their_bytes(tmp_path):
    with open(DIGESTS, encoding="utf-8") as fh:
        expected = json.load(fh)
    got = digests(str(tmp_path))
    assert got["inputs"] == expected["inputs"]
    changed = sorted(k for k in expected["jobs"]
                     if got["jobs"].get(k) != expected["jobs"][k])
    assert not changed and got["jobs"].keys() == expected["jobs"].keys(), \
        f"{len(changed)} of {len(expected['jobs'])} jobs changed: {changed}"
