"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {build,query,serve_under_write} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1`` (names and units in BENCHMARK.json).  The line before it
is a JSON report with run metadata, sample counts, tail percentiles,
the layer-sum check and any failure messages.  All files the run writes
live under ``.pbw/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("build", "query", "serve_under_write")
# Ray puts AF_UNIX sockets under its temp dir, whose paths may not exceed
# 107 bytes; a session dir adds up to ~65 bytes below the temp dir
_SOCKET_PATH_MAX, _SESSION_SUFFIX = 107, 65
RAY_ENV = {"RAY_USAGE_STATS_ENABLED": "0", "RAY_memory_monitor_refresh_ms": "0",
           "RAY_DISABLE_IMPORT_WARNING": "1", "RAY_DATA_DISABLE_PROGRESS_BARS": "1"}


def _alive(pid: int) -> bool:
    try:
        os.waitpid(pid, os.WNOHANG)       # reaps it if it is our child
    except ChildProcessError:
        pass
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def reap(pids: set[int], timeout: float = 30.0) -> None:
    """Wait until every pid has ended; SIGKILL what outlives ``timeout``
    and wait ten more seconds.  Ray workers are children of the raylet,
    not of this process, so they are polled through /proc."""
    deadline, killed = time.monotonic() + timeout, False
    while pids:
        pids = {p for p in pids if _alive(p)}
        if pids and time.monotonic() > deadline:
            if killed:
                return
            for p in pids:
                try:
                    os.kill(p, signal.SIGKILL)
                except OSError:
                    pass
            deadline, killed = time.monotonic() + 10.0, True
        time.sleep(0.1 if pids else 0)


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="input size preset (tiny is for the smoke tests)")
    ap.add_argument("--inject-wrong", action="store_true",
                    help="corrupt the first checked answer (tests only)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "mee_ray", "__init__.py")):
        print(f"perfbench: no mee_ray package under {ROOT}; run from a "
              "full checkout", file=sys.stderr)
        return 2
    # str hashing is salted per process, which reorders sets and moved
    # query latency by ~15 % between runs of one input; the salt follows
    # the seed (and Ray's processes inherit it), so a run repeats and the
    # spread over seeds includes the salt's effect
    args.seed %= 2**32      # numpy's generators take no negative seed
    salt = str(args.seed)
    # Ray must not report usage over the network, nor kill workers when
    # a neighbour on the host uses much memory; its output stays quiet
    for k, v in RAY_ENV.items():
        os.environ.setdefault(k, v)
    if os.environ.get("PYTHONHASHSEED") != salt:
        os.environ["PYTHONHASHSEED"] = salt
        os.execv(sys.executable, [sys.executable, os.path.abspath(__file__),
                                  *sys.argv[1:]])
    # Ray workers import mee_ray and perfbench from the repository root
    sys.path.insert(0, ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    os.chdir(ROOT)
    from perfbench.phases import Bench, descendants

    base = os.path.join(ROOT, ".pbw")
    work = os.path.join(base, f"run-{os.getpid()}")
    ray_tmp = os.path.join(base, f"r{os.getpid()}")
    if len(ray_tmp) + _SESSION_SUFFIX > _SOCKET_PATH_MAX:
        # checkout path too long for a socket path: the same directory
        # through this process's working directory, a short absolute path
        ray_tmp = os.path.join(f"/proc/{os.getpid()}/cwd",
                               os.path.relpath(ray_tmp, ROOT))
    os.makedirs(work, exist_ok=True)
    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace),
                  args.size, work, os.path.join(base, "traces"), ray_tmp,
                  inject_wrong=args.inject_wrong)
    try:
        bench.run()
        metrics = bench.per_layer() if args.trace else bench.end_to_end()
        report = bench.report()
    finally:
        started = descendants(os.getpid())
        bench.close()
        reap(started | descendants(os.getpid()))
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(ray_tmp, ignore_errors=True)
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
