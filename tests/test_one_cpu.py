"""Actor pools must make progress on a 1-CPU Ray cluster.

A pool whose actors each ask for a whole CPU takes the only CPU that
its feeding read tasks need, and the pipeline stalls forever.  The
check runs in a subprocess with its own ``ray.init(num_cpus=1)`` (the
test session's Ray is shared and multi-CPU), one multimodal decode
stage, one fulltext broadcast stage, one hash join (q12, whose
aggregator actors are a pool too, ``stages.hash_join``) and the
passage dedup's bucketed shuffle, under an in-process alarm that shuts
Ray down cleanly and exits 3 when no result arrives.
"""

import os
import subprocess
import sys
import textwrap

from test_pipelines import SF

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ALARM_S = 240

CHILD = textwrap.dedent(f"""
    import signal
    import sys
    import time

    import ray
    import ray.data

    def stalled(*_):
        raise TimeoutError("no progress on 1 CPU")

    signal.signal(signal.SIGALRM, stalled)
    signal.alarm({ALARM_S})
    ray.init(address="local", num_cpus=1, include_dashboard=False,
             logging_level="ERROR")
    ray.data.DataContext.get_current().enable_progress_bars = False
    code = 0
    try:
        from mee_ray.pipelines.fulltext import bm25_stats_agg
        from mee_ray.stages.multimodal import multimodal_png_real
        t0 = time.time()
        png = multimodal_png_real({SF!r}).to_pandas()
        print("png", len(png), round(time.time() - t0, 1))
        t0 = time.time()
        stats = bm25_stats_agg({SF!r})
        print("stats", stats.num_rows, sum(stats["n_docs"].to_pylist()),
              round(time.time() - t0, 1))
        assert len(png) > 0 and stats.num_rows > 0
        # hash joins: the aggregator pool must not hold the only CPU
        from mee_ray.pipelines.relational import q12_priority_classes
        from mee_ray.pipelines.text import passage_dedup_documents
        t0 = time.time()
        q12 = q12_priority_classes({SF!r})
        print("q12", q12.num_rows, round(time.time() - t0, 1))
        t0 = time.time()
        dedup = passage_dedup_documents({SF!r}).to_pandas()
        print("dedup", len(dedup), round(time.time() - t0, 1))
        assert q12.num_rows > 0 and len(dedup) > 0
    except TimeoutError as ex:
        print(ex)
        code = 3
    finally:
        signal.alarm(0)
        ray.shutdown()
    sys.exit(code)
""")


def test_actor_pools_progress_on_one_cpu():
    env = dict(os.environ, PYTHONPATH=ROOT)
    env.pop("RAY_ADDRESS", None)
    proc = subprocess.run([sys.executable, "-c", CHILD], cwd=ROOT, env=env,
                          capture_output=True, text=True,
                          timeout=ALARM_S + 120)
    assert proc.returncode == 0, (proc.returncode, proc.stdout,
                                  proc.stderr[-2000:])
