"""The timed closed loop: spawns every CLI job and reaps it.

    python3 bench/loop.py WORKDIR SECONDS TRACE

On Linux a child's ru_maxrss starts from its parent's RSS at spawn, so
the process that spawns timed jobs must stay lean: this one imports
only os, sys, time and json, holds no inputs and checks no outputs
beyond comparing bytes.  It reads WORKDIR/manifest.json, runs whole
rounds of the job list (another only while the previous round's length
still fits in SECONDS; at least two, or one when traced, so every job
runs twice), and appends one JSON record per job execution to
WORKDIR/records.jsonl.  The last record holds the loop's wall time, the
round count and the ru_maxrss of a bare control child spawned after the
loop.  With TRACE 1 each job runs once plainly and once under
trace_child.py in every round.

Set-up probes (children that only import circlecomb.cli) are spread
over the loop, SETUP_PROBES per round, so set-up time is sampled under
the same machine conditions as the jobs; their time is not part of the
loop's wall time.
"""

import json
import os
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
PYTHON = sys.executable
SETUP_PROBES = 3


def spawn(argv, env, out_path=os.devnull, err_path=os.devnull):
    """Run one child to completion; return (wall_s, exit_code, rusage).

    The wall time runs from spawn to reap; rusage is the child's own,
    from wait4."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644)]
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    return wall, os.waitstatus_to_exitcode(status), usage


def same_bytes(path_a, path_b, block=1 << 16):
    try:
        with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
            while True:
                a, b = fa.read(block), fb.read(block)
                if a != b:
                    return False
                if not a:
                    return True
    except OSError:
        return False


def run_job(idx, job, rnd, traced, env, out):
    """Spawn one job, compare its outputs with the job's first run (moved
    aside to `<output>.first`) and append its record to `out`."""
    err = "stderr.txt"
    if traced:
        argv = [PYTHON, os.path.join(BENCH, "trace_child.py"),
                os.path.join("spans", f"{idx}-{rnd}.json"), "--"]
    else:
        argv = [PYTHON, "-m", "circlecomb.cli"]
    wall, code, usage = spawn(argv + job["argv"], env, err_path=err)
    with open(err, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    problems = []
    if code != 0:
        problems.append(f"exit {code}")
    if "Traceback (most recent call last)" in stderr:
        problems.append("traceback on stderr")
    for path in job["outputs"]:
        first = path + ".first"
        if not os.path.exists(path):
            problems.append(f"{path} missing")
        elif not os.path.exists(first):
            os.replace(path, first)
        elif not same_bytes(path, first):
            problems.append(f"{path} differs from its first run")
    out.write(json.dumps({
        "job": idx, "round": rnd, "traced": traced, "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss, "exit": code, "problems": problems,
        "warnings": sum("RuntimeWarning" in ln
                        for ln in stderr.splitlines())}) + "\n")


def main():
    workdir, seconds, trace = sys.argv[1], float(sys.argv[2]), \
        sys.argv[3] == "1"
    os.chdir(workdir)
    with open("manifest.json", encoding="utf-8") as fh:
        jobs = [{"argv": j["argv"], "outputs": j["outputs"]}
                for j in json.load(fh)["jobs"]]
    env = dict(os.environ)
    min_rounds = 1 if trace else 2
    probe_at = {len(jobs) * i // SETUP_PROBES for i in range(SETUP_PROBES)}
    probe_s = 0.0
    with open("records.jsonl", "w", encoding="utf-8") as out:
        start = time.perf_counter()
        rnd = 0
        while True:
            r0 = time.perf_counter()
            r_probe = probe_s
            for idx, job in enumerate(jobs):
                if idx in probe_at:
                    wall, code, _ = spawn(
                        [PYTHON, "-c", "import circlecomb.cli"], env)
                    probe_s += wall
                    out.write(json.dumps({"setup_s": wall, "exit": code})
                              + "\n")
                run_job(idx, job, rnd, False, env, out)
                if trace:
                    run_job(idx, job, rnd, True, env, out)
            rnd += 1
            now = time.perf_counter()
            round_s = now - r0 - (probe_s - r_probe)
            if rnd >= min_rounds and now - start - probe_s + round_s > seconds:
                break
        loop_s = now - start - probe_s
        control = spawn([PYTHON, "-c", "pass"], env)[2].ru_maxrss
        out.write(json.dumps({"loop_s": loop_s, "rounds": rnd,
                              "control_rss_kb": control}) + "\n")


if __name__ == "__main__":
    main()
