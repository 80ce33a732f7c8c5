"""Closed-loop client for the fit-cold workload (standard library only).

    python3 bench/spawn.py JOB.json RESULT.json

JOB holds the commands to cycle through, the time budget, the environment
and a directory for the children's output.  Each op spawns one command and
waits for it; the op time runs from before the spawn to after the wait.

A child's peak RSS as reported by wait4 includes the RSS of the process that
spawned it, so the ops are spawned from this bare interpreter rather than
from the harness, which has numpy loaded.  RESULT gets, per op, the command
index, the time in ns, the exit status, the child's peak RSS in KB and the
calibration loop time after the op (bench/calib.py), and the stdout and
stderr of the first run of each command; later runs are compared with the
first here and only the indices of differing ops are kept.
"""
import json
import os
import subprocess
import sys
import time

import calib


def main(job_path, result_path):
    with open(job_path, encoding="utf-8") as f:
        job = json.load(f)
    commands, env = job["commands"], job["env"]
    out_path = os.path.join(job["out_dir"], "stdout.txt")
    err_path = os.path.join(job["out_dir"], "stderr.txt")
    ops, first, differs = [], {}, []
    cal = calib.Calibrator()
    deadline = time.perf_counter_ns() + int(job["seconds"] * 1e9)
    i = 0
    while i < job.get("max_ops", 1 << 62) and time.perf_counter_ns() < deadline:
        key = i % len(commands)
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter_ns()
            proc = subprocess.Popen(commands[key], stdout=out, stderr=err, env=env)
            _, status, usage = os.wait4(proc.pid, 0)
            t1 = time.perf_counter_ns()
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, encoding="utf-8") as f:
            stdout = f.read()
        with open(err_path, encoding="utf-8") as f:
            stderr = f.read()
        result = [proc.returncode, stdout, stderr]
        if key not in first:
            first[key] = result
        elif result != first[key]:
            differs.append(i)
        ops.append([key, t1 - t0, proc.returncode, usage.ru_maxrss])
        cal.op_done(t1 - t0)
        i += 1
    cal.close_block()
    for op, ref in zip(ops, cal.ref_ns):
        op.append(ref)
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump({"ops": ops, "first": first, "differs": differs}, f)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
