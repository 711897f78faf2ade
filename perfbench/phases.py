"""The three workloads, built from shared phases.

A workload is set-up plus the phases it measures:

* ``build``  — fresh ``build_index`` runs over the corpus;
* ``query``  — the query stream in-process, through
  ``DistributedSearcher.search``, then as ``msearch`` batches;
* ``serve_under_write`` — rounds of delta batches with query bursts on a
  reopened reader, then a tombstone-bearing ``compact`` and a
  post-compact burst.

One closed-loop client issues every operation from this process.  In a
traced run (``trace=True``) half the measured operations are traced:
each query of a repeated set runs traced on one pass and untraced on
the next, so the tracing overhead compares runs of the same query.  The
layers the workload does not exercise itself are run once as short
probes over the workload's own index, so every per-layer metric is
measured on every workload.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import time
from collections import defaultdict

import numpy as np

from perfbench.inputs import SIZES, Corpus, DeltaModel, Oracle, query_stream
from perfbench.spans import Tracer

SETUP_REPEATS = 3          # set-up units per run; setup_s takes their median
PROBE_BATCHES = 2          # delta batches in the write probe
PING_COUNT = 50
QUERY_WINDOW = 100         # stream queries run on one CPU in a row
BURST_WINDOW = 25          # burst queries run on one CPU in a row
CAL_REF_S = 1e-3           # calibrate() on the reference CPU (see CpuRotor)
N_ACTORS_REQUESTED = 4     # DistributedSearcher clamps to cluster CPUs - 1
# One Ray CPU on every host, so runs compare across machines and a busy
# neighbour moves fewer numbers; the driver-side client is the only other
# busy thread (one closed-loop client).
RAY_CPUS = 1
# the inputs are a few MB; a fixed object store keeps Ray's memory use
# the same on every host, whatever its memory size
OBJECT_STORE_BYTES = 256 * 2**20


def median(xs) -> float:
    return float(statistics.median(xs))


def quiet(xs) -> float:
    """10th percentile of per-operation figures (delta batches): the
    figure of an operation that busy neighbours did not slow."""
    if len(xs) < 2:
        return float(xs[0])
    return float(statistics.quantiles(xs, n=10, method="inclusive")[0])


def per_query_median(samples) -> list[float]:
    """Each query's median run, from (query index, seconds) samples."""
    runs: dict[int, list[float]] = defaultdict(list)
    for i, dt in samples:
        runs[i].append(dt)
    return [median(r) for r in runs.values()]


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes, fastest of three: the
    speed of the calling thread's CPU right now."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        sum(i * i for i in range(20000))
        best = min(best, time.perf_counter() - t0)
    return best


def descendants(pid: int) -> set[int]:
    """Every live process below ``pid``, read from /proc."""
    children: dict[int, list[int]] = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                # the fields after the ")" closing the command name
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        children.setdefault(ppid, []).append(int(d))
    out, todo = set(), [pid]
    while todo:
        for c in children.get(todo.pop(), []):
            if c not in out:
                out.add(c)
                todo.append(c)
    return out


class CpuRotor:
    """Pins this process, or it and every process it started, to one of
    the CPUs it may use and reports that CPU's speed.

    On a shared host, neighbours slow single CPUs, or all of them, by up
    to 1.5x for seconds to minutes, and the plain median query latency
    moved 35 % between runs of one input.  Queries therefore run on
    every CPU in turn, and each run is scaled by ``CAL_REF_S /
    calibrate()`` measured on the same CPU just before: its time on a
    CPU that runs the loop in CAL_REF_S.  Every thread moves, the
    client's and the engine's in-process thread pools (parquet decode)
    alike, so the work runs on the calibrated CPU.  In-process queries
    move this process only; builds and delta batches also move Ray's
    raylet and workers, so they run as on a one-CPU host."""

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))

    @staticmethod
    def _set(cpus, tree: bool) -> None:
        me = os.getpid()
        for pid in [me, *(descendants(me) if tree else ())]:
            try:
                tids = os.listdir(f"/proc/{pid}/task")
            except OSError:     # the process has ended
                continue
            for tid in tids:
                try:
                    os.sched_setaffinity(int(tid), cpus)
                except OSError:     # the thread has ended
                    pass

    def pin(self, k: int, tree: bool = False) -> float:
        """Pin to the k-th CPU (mod count); returns its time scale."""
        self._set({self.cpus[k % len(self.cpus)]}, tree)
        return CAL_REF_S / calibrate()

    def restore(self) -> None:
        self._set(self.cpus, tree=True)


def tail(xs) -> tuple[float, float]:
    """(percentile, value): the highest of p99.9/p99/p90/p50 that leaves
    at least ten samples beyond it; the maximum when even p50 does not."""
    n = len(xs)
    for p in (99.9, 99.0, 90.0, 50.0):
        if n * (1 - p / 100) >= 10:
            return p, float(np.percentile(xs, p))
    return 100.0, float(max(xs))


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, fs in os.walk(path) for f in fs)


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 size: str, work: str, trace_dir: str,
                 ray_tmp: str | None = None, inject_wrong: bool = False):
        self.workload = workload
        self.seed = seed
        self.seconds = float(seconds)
        self.trace = trace
        self.size = SIZES[size]
        self.work = work
        self.trace_dir = trace_dir
        self.ray_tmp = ray_tmp
        self.inject_wrong = inject_wrong
        self.tracer = Tracer()
        self.rotor = CpuRotor()
        self.samples: dict[str, list] = defaultdict(list)
        self.meta: dict = {"workload": workload, "seed": seed,
                           "seconds": seconds, "trace": int(trace),
                           "size": size}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.builds: list[dict] = []
        self.measured_builds: list[dict] = []   # after set-up, on `build`
        self.wand = defaultdict(int)
        self.kernels: dict[str, float] = {}
        self._op_counts: dict[str, int] = defaultdict(int)
        self._n_burst: dict[str, int] = defaultdict(int)
        self._n_pinned = 0
        self._in_unit = False
        self._tampered: set[str] = set()
        self.last_traced = False

    # ---- bookkeeping ---------------------------------------------------

    def _fail(self, msg: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(msg)

    def check(self, ok: bool, msg: str) -> None:
        """One checked operation's verdict (counted once per op)."""
        if not ok:
            self._fail(msg)

    def tamper(self, got, kind: str):
        """Test hook: corrupt the first checked answer of each kind."""
        if not self.inject_wrong or kind in self._tampered:
            return got
        self._tampered.add(kind)
        if isinstance(got, list):
            return [(d, s + 1.0) for d, s in got] or [(0, 1.0)]
        return got + 1

    def alternate(self, key: int, n_pass: int) -> bool:
        """Whether a traced run traces run ``n_pass`` of query ``key``:
        it flips per query and per pass, so every query of a repeated
        set runs both traced and untraced."""
        return self.trace and (key + n_pass) % 2 == 1

    def op(self, root: str, fn, *a, traced: bool | None = None,
           key: int | None = None, **kw):
        """Run one operation under a root span → (result or None, secs).
        ``traced=None`` alternates per root name.  A traced run records
        each alternating or keyed operation as (key, traced, secs) under
        ``<root>.runs``, the pairs behind the tracing overhead."""
        pair = self.trace and (traced is None or key is not None)
        if traced is None:
            traced = self.trace and self._op_counts[root] % 2 == 1
            self._op_counts[root] += 1
        self.attempted += 1
        self.tracer.on = traced
        t0 = time.perf_counter()
        try:
            with self.tracer.span(root):
                out = fn(*a, **kw)
        except Exception as e:  # counted as a failed operation
            out = None
            self._fail(f"{root}: {type(e).__name__}: {e}")
        dt = time.perf_counter() - t0
        self.tracer.on = False
        self.last_traced = traced
        if pair:
            self.samples[root + ".runs"].append((key, traced, dt))
        return out, dt

    def overhead(self, root: str) -> float:
        """Median over keys of traced / untraced median seconds, minus 1."""
        runs: dict = defaultdict(lambda: ([], []))
        for key, traced, dt in self.samples[root + ".runs"]:
            runs[key][int(traced)].append(dt)
        return median([median(t) / median(u)
                       for u, t in runs.values() if u and t]) - 1

    def pinned_op(self, root: str, fn, *a, traced: bool | None = None):
        """One operation with every process of the run pinned to the next
        CPU → (result or None, secs, secs scaled to the reference CPU by
        that CPU's calibration before and after).  Inside a set-up unit,
        which is pinned and scaled as a whole, it neither moves nor
        scales."""
        if self._in_unit:
            out, dt = self.op(root, fn, *a, traced=traced)
            return out, dt, dt
        (out, dt), scale = self.pinned(
            lambda: self.op(root, fn, *a, traced=traced))
        return out, dt, dt * scale

    def pinned(self, fn):
        """``fn()`` with every process of the run pinned to the next CPU
        → (result, that CPU's time scale from its calibration before and
        after).  Processes started meanwhile inherit the pin."""
        scale = self.rotor.pin(self._n_pinned, tree=True)
        self._n_pinned += 1
        try:
            out = fn()
        finally:
            scale = (scale + CAL_REF_S / calibrate()) / 2
            self.rotor.restore()
        return out, scale

    # ---- set-up --------------------------------------------------------

    def start(self) -> None:
        import logging

        import ray
        self.corpus = Corpus(os.path.join(self.work, "corpus"), self.seed,
                             self.size)
        self.oracle = Oracle(self.corpus.docs())
        self.queries = query_stream(self.corpus.docs(),
                                    self.size["n_queries"], self.seed)
        rng = np.random.default_rng(self.seed + 1)
        self.check_idx = sorted(rng.choice(
            len(self.queries), size=min(self.size["check_queries"],
                                        len(self.queries)),
            replace=False).tolist())

        affinity = len(os.sched_getaffinity(0))
        # GNU nproc honours OMP_NUM_THREADS
        nproc = int(os.environ.get("OMP_NUM_THREADS") or affinity)
        kw = {}
        if self.ray_tmp:
            kw["_temp_dir"] = self.ray_tmp
        # scaled by this CPU's calibration before and after, not pinned:
        # Ray's processes started on one CPU took twice as long
        scale = CAL_REF_S / calibrate()
        t0 = time.perf_counter()
        ray.init(address="local", num_cpus=RAY_CPUS, include_dashboard=False,
                 object_store_memory=OBJECT_STORE_BYTES, logging_level="ERROR",
                 log_to_driver=False, **kw)
        raw_init_s = time.perf_counter() - t0
        self.ray_init_s = raw_init_s * (scale + CAL_REF_S / calibrate()) / 2
        import ray.data
        ray.data.DataContext.get_current().enable_progress_bars = False
        logging.getLogger("ray.data").setLevel(logging.WARNING)
        self.meta.update(
            nproc=nproc, affinity_cpus=affinity, ray_version=ray.__version__,
            ray_num_cpus=int(ray.cluster_resources().get("CPU", 0)),
            corpus_parquet_bytes=self.corpus.parquet_bytes,
            input_bytes=self.corpus.input_bytes,
            n_docs=len(self.corpus.live), n_rows=self.corpus.n_rows,
            ray_init_s=raw_init_s,
            shard_actors=0)     # set when a DistributedSearcher runs
        if self.trace:
            self._install_wrappers()

    def _install_wrappers(self) -> None:
        from mee_ray import build, delta, merge, query, wand
        w = self.tracer.wrap
        w(build, "winner_doc_ids", "build.dedup")
        w(query.Searcher, "search", "query.search")
        w(query.Searcher, "search_wand", "query.search_wand")
        w(wand, "search_wand", "wand.search")
        w(query, "merge_partials", "query.merge")
        w(query.DistributedSearcher, "search", "dist.search")
        w(query.DistributedSearcher, "msearch", "dist.msearch")
        w(delta, "apply_delta", "delta.apply")
        w(merge, "compact", "merge.compact")

    def close(self) -> None:
        self.tracer.unwrap_all()
        for ds in getattr(self, "_live_ds", []):
            try:
                ds.shutdown()
            except Exception:
                pass
        import ray
        if ray.is_initialized():
            ray.shutdown()

    # ---- engine operations ---------------------------------------------

    def build(self, root: str, traced: bool | None = None) -> dict | None:
        """One fresh build of the corpus; records stage timings."""
        import ray.data

        from mee_ray.build import build_index
        from mee_ray.config import EngineConfig
        shutil.rmtree(root, ignore_errors=True)
        cfg = EngineConfig(num_shards=8, parts_per_shard=4)
        n0 = len(self.tracer.spans)
        m, wall, scaled = self.pinned_op("op.build", lambda: build_index(
            ray.data.read_parquet(self.corpus.path), root, "e1", cfg,
            dedup=True), traced=traced)
        if m is None:
            return None
        dedup = [s["end"] - s["start"] for s in self.tracer.spans[n0:]
                 if s["name"] == "build.dedup"]
        edir = os.path.join(root, "epochs", "e1")
        with open(os.path.join(edir, "metrics.json")) as f:
            metrics = json.load(f)
        rec = {"wall": wall, "scaled": scaled, "manifest": m,
               "metrics": metrics,
               "baseline": not self.last_traced, "dedup": dedup,
               "index_bytes": dir_bytes(os.path.join(edir, "segments"))
               + dir_bytes(os.path.join(edir, "docs")),
               "shas": sorted(s["sha256"] for s in m["segments"])}
        self.builds.append(rec)
        return rec

    def open_searcher(self, root: str):
        from mee_ray.query import Searcher
        with self.tracer.span("manifest.reopen"):
            return Searcher(root)

    def _wand_add(self, searcher) -> None:
        for k, v in searcher.query_stats.as_dict().items():
            self.wand[k] += v

    def _inprocess(self, searcher, q: dict, root: str, oracle: Oracle,
                   traced: bool, key: int | None = None,
                   record: bool = True):
        got, dt = self.op(root, searcher.search, q["terms"], q["k"],
                          traced=traced, key=key)
        if record:
            pending = len(searcher.tombstones) > 0
            self.samples[f"{root}.exhaustive"].append(int(pending))
            if not self.last_traced:
                self.samples[f"{root}.ms"].append(dt * 1e3)
                self.samples[f"{root}.{q['kind']}.ms"].append(dt * 1e3)
        if oracle is not None and got is not None:
            got = self.tamper(got, "query")
            want = oracle.search(q["terms"], q["k"])
            self.check(got == want, f"{root} {q['terms']}: engine != oracle")
        return got, dt

    # ---- phases --------------------------------------------------------

    def query_stream_phase(self, searcher, budget: float, root: str = "op.query",
                           qs: list[dict] | None = None,
                           oracle: Oracle | None = None) -> None:
        """In-process ``Searcher.search`` over the stream: at least one
        full pass, then more while the budget lasts; every answer is
        checked against the oracle.  Each pass moves every run of
        QUERY_WINDOW queries to the next CPU, so a query meets every CPU
        in as many passes as there are CPUs; runs are recorded raw and
        scaled to the reference CPU."""
        qs = qs if qs is not None else self.queries
        oracle = oracle or self.oracle
        spent, i = 0.0, 0
        while i < len(qs) or spent < budget:
            n_pass, j = divmod(i, len(qs))
            if j % QUERY_WINDOW == 0:
                scale = self.rotor.pin(j // QUERY_WINDOW + n_pass)
            _, dt = self._inprocess(searcher, qs[j], root, oracle,
                                    traced=self.alternate(j, n_pass), key=j)
            spent += dt
            if not self.last_traced:
                self.samples["q.by_index"].append((j, dt))
                self.samples["q.scaled"].append((j, dt * scale))
            i += 1
        self.rotor.restore()
        self._wand_add(searcher)

    def distributed_phase(self, ds, budget: float, qs: list[dict],
                          oracle: Oracle, msearch_budget: float) -> None:
        import ray
        spent, i = 0.0, 0
        while i < len(qs) or spent < budget:
            n_pass, j = divmod(i, len(qs))
            q = qs[j]
            got, dt = self.op("op.dist", ds.search, q["terms"], q["k"],
                              traced=self.alternate(j, n_pass), key=j)
            spent += dt
            if not self.last_traced:
                self.samples["dist.ms"].append(dt * 1e3)
                self.samples["dist.by_index"].append((j, dt))
            if got is not None:
                got = self.tamper(got, "dist")
                self.check(got == oracle.search(q["terms"], q["k"]),
                           f"dist {q['terms']}: engine != oracle")
            i += 1
        batch = [q["terms"] for q in qs]
        spent, b = 0.0, 0
        while b < (2 if self.trace else 1) or spent < msearch_budget:
            got, dt = self.op("op.msearch", ds.msearch, batch, 10)
            spent += dt
            b += 1
            if not self.last_traced:
                self.samples["msearch.qps"].append(len(batch) / dt)
            self.samples["msearch.n"].append(len(batch))
            if got is not None:
                got = [self.tamper(got[0], "msearch")] + got[1:]
                bad = sum(g != oracle.search(q["terms"], 10)
                          for g, q in zip(got, qs))
                self.check(bad == 0, f"msearch: {bad} answers != oracle")

        @ray.remote(num_cpus=0)
        class Ping:
            def ping(self):
                return 1

        p = Ping.remote()
        ray.get(p.ping.remote())
        for _ in range(PING_COUNT):
            t0 = time.perf_counter()
            ray.get(p.ping.remote())
            self.samples["ping.ms"].append((time.perf_counter() - t0) * 1e3)
        ray.kill(p, no_restart=True)
        self.meta["shard_actors"] = len(ds.actors)

    def make_ds(self, root: str):
        from mee_ray.query import DistributedSearcher
        ds = DistributedSearcher(root, n_actors=N_ACTORS_REQUESTED)
        self._live_ds = [ds]
        for q in self.queries[:5]:
            ds.search(q["terms"], q["k"])
        return ds

    def burst(self, searcher, qroot: str, probe: bool) -> float:
        """The next ``burst`` queries of the burst pool on ``searcher``, a
        reader just reopened: each run is the query's first on that
        reader, so it pays the posting fetch and decode that traffic
        after a reopen pays.  The pool is the first burst x
        batches_per_round queries of the stream, so each round of batches
        runs every pool query once.  Every BURST_WINDOW queries move to
        the next CPU; runs are recorded scaled to the reference CPU.
        Returns the seconds spent."""
        n = self.size["burst"]
        pool = self.queries[:n * self.size["batches_per_round"]]
        b = self._n_burst[qroot]
        self._n_burst[qroot] += 1
        n_pass, start = divmod(b * n, len(pool))
        spent = 0.0
        for j in range(start, start + n):
            if (j - start) % BURST_WINDOW == 0:
                scale = self.rotor.pin(b + (j - start) // BURST_WINDOW)
            _, dt = self._inprocess(
                searcher, pool[j], qroot, None, key=j, record=not probe,
                traced=False if probe else self.alternate(j, n_pass))
            spent += dt
            if not probe and not self.last_traced:
                self.samples[qroot + ".scaled"].append(dt * scale)
        self.rotor.restore()
        return spent

    def write_round(self, root: str, model: DeltaModel, rnd: int,
                    n_batches: int, probe: bool = False) -> float:
        """Delta batches, each followed by a reader reopen and a query
        burst; then a tombstone-bearing compact and a post-compact
        burst.  Returns the measured seconds."""
        from mee_ray import delta as delta_mod
        from mee_ray import manifest as mf
        from mee_ray import merge as merge_mod
        spent = 0.0
        traced = True if (probe and self.trace) else None
        burst_root = "op.probe_burst" if probe else "op.burst"
        searcher = None
        for _ in range(n_batches):
            ev = model.next_batch(self.size["delta_events"])
            rec, dt, scaled = self.pinned_op("op.delta", delta_mod.apply_delta,
                                             ev, root, traced=traced)
            spent += dt
            if rec is not None:
                self.samples["delta.apply_s"].append(dt)
                self.samples["delta.scaled_s"].append(scaled)
                self.samples["delta.events"].append(ev.num_rows)
            searcher, dt = self.op("op.reopen", self.open_searcher, root,
                                   traced=traced)
            spent += dt
            self.samples["reopen.ms"].append(dt * 1e3)
            if searcher is None:
                return spent
            spent += self.burst(searcher, burst_root, probe)
        # the reader that saw the most pending delta records this round
        self.samples["reopen.last.ms"].append(self.samples["reopen.ms"][-1])
        # the exhaustive answers recorded just before compact, checked
        # against an oracle over the live documents
        oracle = Oracle(model.docs())
        checks = [self.queries[i] for i in self.check_idx]
        pre = []
        for q in checks:
            got, _ = self._inprocess(searcher, q, "op.check", oracle,
                                     traced=False, record=False)
            pre.append(got)
        old = mf.load_manifest(root)
        before = old["n_docs"] + sum(d.get("n_added", 0)
                                     for d in old.get("deltas", []))
        m, dt = self.op("op.compact", merge_mod.compact, root,
                        f"c{rnd}{'p' if probe else ''}", gc_old=True,
                        traced=traced)
        spent += dt
        if m is None:
            return spent
        self.samples["compact.s"].append(dt)
        self.samples["merge.bytes"].append(
            sum(s["bytes"] for s in m["segments"]))
        self.samples["merge.dropped"].append(before - m["n_docs"])
        searcher, dt = self.op("op.reopen", self.open_searcher, root,
                               traced=traced)
        spent += dt
        if searcher is None:
            return spent
        spent += self.burst(searcher, "op.burst_post", probe)
        # post-compact WAND answers must equal the pre-compact
        # exhaustive ones (and therefore the oracle)
        for q, want in zip(checks, pre):
            got, _ = self._inprocess(searcher, q, "op.check", None,
                                     traced=False, record=False)
            if got is not None and want is not None:
                got = self.tamper(got, "compact")
                self.check(got == want, f"post-compact {q['terms']}: "
                           "WAND != pre-compact exhaustive")
        if not probe:
            self._wand_add(searcher)
        self.live_oracle = oracle
        return spent

    def kernel_pass(self) -> None:
        """Build kernels in-process over the deduplicated corpus: the
        time Ray workers spend in them, which spans cannot see."""
        import pyarrow as pa
        import pyarrow.compute as pc
        import pyarrow.parquet as pq

        from mee_ray.build import (DocTokenize, ExplodeTriples,
                                   make_encode_partition)
        from mee_ray.config import EngineConfig
        from mee_ray.ids import doc_ids_batch
        cfg = EngineConfig(num_shards=8, parts_per_shard=4)
        t = pq.read_table(self.corpus.path)
        ids = doc_ids_batch(t["repo"], t["path"], t["commit"])
        winners = {d for d, _ in self.corpus.live.values()}
        t = t.filter(pa.array([int(d) in winners for d in ids]))
        bs = cfg.tokenize_batch_size
        batches = [t.slice(i, bs) for i in range(0, t.num_rows, bs)]
        t0 = time.perf_counter()
        tok1 = DocTokenize(cfg, emit_terms=False)
        for b in batches:
            tok1(b)
        k = {"tok_lengths_s": time.perf_counter() - t0}
        t0 = time.perf_counter()
        tok2 = DocTokenize(cfg, emit_terms=True)
        toks = [tok2(b) for b in batches]
        k["tokenize_terms_s"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        ex = ExplodeTriples(cfg)
        triples = pa.concat_tables([ex(x) for x in toks])
        k["explode_s"] = time.perf_counter() - t0
        triples = triples.take(pc.sort_indices(triples, [("part", "ascending")]))
        parts = triples["part"].to_numpy()
        cuts = np.flatnonzero(np.diff(parts)) + 1
        bounds = zip(np.r_[0, cuts], np.r_[cuts, len(parts)])
        groups = [triples.slice(lo, hi - lo) for lo, hi in bounds]
        seg = os.path.join(self.work, "kernel_segments")
        shutil.rmtree(seg, ignore_errors=True)
        os.makedirs(seg)
        avgdl = self.oracle.total_tokens / max(1, len(self.corpus.live))
        enc = make_encode_partition(seg, avgdl, cfg)
        t0 = time.perf_counter()
        for g in groups:
            enc(g)
        k["encode_s"] = time.perf_counter() - t0
        k["tokens_per_s"] = self.oracle.total_tokens / k["tok_lengths_s"]
        self.kernels = k

    # ---- workloads -----------------------------------------------------

    def setup_units(self, with_ds: bool) -> tuple[str, object, object]:
        """Repeat the set-up unit (fresh index build, searcher open and
        warm-up, optionally a warmed DistributedSearcher); keep the last.
        Each unit runs with every process pinned to one CPU and is scaled
        by its calibration, as a build is."""
        def unit(root):
            rec = self.build(root, traced=self.trace)
            if rec is None:
                raise RuntimeError("set-up build failed: "
                                   + "; ".join(self.failures))
            searcher = self.open_searcher(root)
            for q in self.queries[:20]:
                searcher.search(q["terms"], q["k"])
            return searcher, self.make_ds(root) if with_ds else None

        units, raw = [], []
        for r in range(SETUP_REPEATS):
            root = os.path.join(self.work, f"index{r}")
            t0 = time.perf_counter()
            self._in_unit = True
            try:
                (searcher, ds), scale = self.pinned(lambda: unit(root))
            finally:
                self._in_unit = False
            raw.append(time.perf_counter() - t0)
            units.append(raw[-1] * scale)
            if r < SETUP_REPEATS - 1:
                if ds is not None:
                    ds.shutdown()
                shutil.rmtree(root, ignore_errors=True)
        self.samples["setup.unit_s"] = units
        self.samples["setup.unit_raw_s"] = raw
        self.setup_s = self.ray_init_s + median(units)
        self.check_build(self.builds[-1])
        return root, searcher, ds

    def check_build(self, rec: dict) -> None:
        m = rec["manifest"]
        n_docs = self.tamper(m["n_docs"], "build")
        first = self.builds[0]["shas"]
        self.check(n_docs == len(self.corpus.live)
                   and m["total_tokens"] == self.oracle.total_tokens
                   and rec["shas"] == first,
                   f"build: n_docs {n_docs}/{len(self.corpus.live)}, tokens "
                   f"{m['total_tokens']}/{self.oracle.total_tokens}, "
                   f"lineage sha256 equal to first build: "
                   f"{rec['shas'] == first}")

    def wl_build(self) -> None:
        root, _, _ = self.setup_units(with_ds=False)
        builds = self.measured_builds
        spent = 0.0
        while len(builds) < 2 or spent < self.seconds:
            rec = self.build(root)
            if rec is None:
                break
            builds.append(rec)
            spent += rec["wall"]
            self.check_build(rec)
        # the last build's index must answer like the oracle
        searcher = self.open_searcher(root)
        checks = [self.queries[i] for i in self.check_idx]
        self.query_stream_phase(searcher, 0.0, qs=checks)
        self.index_root = root
        self.e2e_op_s = [b["wall"] for b in builds if b["baseline"]]
        scaled = median([b["scaled"] for b in builds if b["baseline"]])
        self.e2e = {
            "op_p50_ms": scaled * 1e3,
            "work_per_s": builds[-1]["manifest"]["n_docs"] / scaled,
        }

    def wl_query(self) -> None:
        root, searcher, ds = self.setup_units(with_ds=True)
        s = self.seconds
        self.query_stream_phase(searcher, 0.65 * s)
        self.distributed_phase(ds, 0.25 * s, self.queries, self.oracle, 0.10 * s)
        ds.shutdown()
        self._live_ds = []
        self.index_root = root
        per_q = per_query_median(self.samples["q.scaled"])
        self.e2e_per_query = per_q
        self.e2e = {"op_p50_ms": median(per_q) * 1e3,
                    "work_per_s": 1 / statistics.mean(per_q)}

    def wl_serve_under_write(self) -> None:
        root, _, _ = self.setup_units(with_ds=False)
        self.model = DeltaModel(self.corpus, self.seed)
        spent, rnd = 0.0, 0
        # two rounds at least: every pool query then runs on readers of
        # both, traced on one and untraced on the other in a traced run
        while rnd < 2 or spent < self.seconds:
            rnd += 1
            spent += self.write_round(root, self.model, rnd,
                                      self.size["batches_per_round"])
        self.index_root = root
        per_q = self.samples["op.burst.scaled"]
        self.e2e_per_query = per_q
        per_event = [dt / n for dt, n in zip(self.samples["delta.scaled_s"],
                                             self.samples["delta.events"])]
        self.e2e = {"op_p50_ms": median(per_q) * 1e3,
                    "work_per_s": 1 / quiet(per_event)}

    def probes(self) -> None:
        """Traced run only: exercise, once, the layers this workload
        does not measure itself, over its own index."""
        root = self.index_root
        if self.workload in ("build", "serve_under_write"):
            oracle = getattr(self, "live_oracle", self.oracle)
            checks = [self.queries[i] for i in self.check_idx]
            if self.workload == "serve_under_write":
                # in-process twin of the distributed pass (rpc_wait_ms)
                self.query_stream_phase(self.open_searcher(root), 0.0,
                                        root="op.probe_query", qs=checks,
                                        oracle=oracle)
            ds = self.make_ds(root)
            self.distributed_phase(ds, 0.0, checks, oracle, 0.0)
            ds.shutdown()
            self._live_ds = []
        if self.workload in ("build", "query"):
            self.write_round(root, DeltaModel(self.corpus, self.seed), 0,
                             PROBE_BATCHES, probe=True)
        self.kernel_pass()

    def run(self) -> None:
        self.start()
        getattr(self, "wl_" + self.workload)()
        self.meta["index_bytes"] = self.builds[-1]["index_bytes"]
        if self.trace:
            self.probes()
            os.makedirs(self.trace_dir, exist_ok=True)
            self.tracer.dump(os.path.join(
                self.trace_dir, f"{self.workload}-seed{self.seed}.json"))

    # ---- metrics -------------------------------------------------------

    QUERY_ROOT = {"build": "op.query", "query": "op.query",
                  "serve_under_write": "op.burst"}
    MEASURED_ROOTS = {
        "build": {"op.build"},
        "query": {"op.query", "op.dist", "op.msearch"},
        "serve_under_write": {"op.delta", "op.reopen", "op.burst",
                              "op.compact", "op.burst_post"},
    }

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        return {
            "setup_s": (self.setup_s, "s"),
            "op_p50_ms": (self.e2e["op_p50_ms"], "ms"),
            "work_per_s": (self.e2e["work_per_s"], "1/s"),
            "index_bytes_per_input_byte": (
                self.builds[-1]["index_bytes"] / self.corpus.input_bytes,
                "B/B"),
        }

    def op_samples(self) -> list[float]:
        """The samples behind op_p50_ms, in ms."""
        if self.workload == "build":
            return [w * 1e3 for w in self.e2e_op_s]
        return self.samples[self.QUERY_ROOT[self.workload] + ".ms"]

    def layer_sum(self) -> tuple[float, float]:
        """(Σ layer self time, wall) of the measured operations.  Build
        layers are the engine's stage timers plus the in-process kernel
        pass, since its spans cannot reach into Ray workers."""
        if self.workload != "build":
            return self.tracer.layer_sum(self.MEASURED_ROOTS[self.workload])
        traced = [b for b in self.measured_builds if not b["baseline"]]
        k = self.kernels
        per_build = [b["metrics"]["stage_seconds"].get("docs", 0.0)
                     + b["metrics"]["stage_seconds"].get("stats", 0.0)
                     + k["tokenize_terms_s"] + k["explode_s"] + k["encode_s"]
                     for b in traced]
        return sum(per_build), sum(b["wall"] for b in traced)

    def per_layer(self) -> dict[str, tuple[float, str]]:
        s = self.samples
        b = self.builds
        stage = {k: median([x["metrics"]["stage_seconds"].get(k) or 0.0
                            for x in b]) for k in ("docs", "stats", "segments")}
        wall = median([x["wall"] for x in b])
        k = self.kernels
        segm = b[-1]["metrics"]["segments"]
        qroot = self.QUERY_ROOT[self.workload]
        qops = self.tracer.by_op({"op.query", "op.burst", "op.burst_post"})
        search_self = [d.get("query.search", 0.0) + d.get("query.search_wand", 0.0)
                       for d in qops if "query.search" in d]
        wand_ms = [d["wand.search"] for d in qops if "wand.search" in d]
        ms_ops = self.tracer.by_op({"op.msearch"})
        n_batch = s["msearch.n"][0]
        inproc = defaultdict(list)
        for i, dt in s["q.by_index"]:
            inproc[i].append(dt)
        dist = defaultdict(list)
        for i, dt in s["dist.by_index"]:
            dist[i].append(dt)
        rpc = [median(dist[i]) - median(inproc[i]) for i in dist if i in inproc]
        exh = [x for r in ("op.query", "op.burst", "op.burst_post")
               for x in s[r + ".exhaustive"]]
        layers, twall = self.layer_sum()
        main = {"build": "op.build", "query": "op.query",
                "serve_under_write": "op.burst"}[self.workload]
        w = self.wand
        m = {
            "build.stage_docs_s": (stage["docs"], "s"),
            "build.stage_stats_s": (stage["stats"], "s"),
            "build.stage_segments_s": (stage["segments"], "s"),
            "build.publish_s": (wall - sum(stage.values()), "s"),
            "build.dedup_s": (median([d for x in b for d in x["dedup"]]), "s"),
            "tokenizer.tokens_per_s": (k["tokens_per_s"], "1/s"),
            "build.tokenize_terms_s": (k["tokenize_terms_s"], "s"),
            "build.explode_s": (k["explode_s"], "s"),
            "build.encode_s": (k["encode_s"], "s"),
            "build.unattributed_s": (stage["segments"] - k["tokenize_terms_s"]
                                     - k["explode_s"] - k["encode_s"], "s"),
            "build.n_postings": (segm["n_postings"], "count"),
            "build.skew_ratio": (segm["skew_ratio"], "ratio"),
            "postings.bytes_per_posting": (
                segm["bytes_total"] / segm["n_postings"], "B"),
            "query.search_self_ms": (median(search_self) * 1e3, "ms"),
            "query.hot_p50_ms": (median(s[qroot + ".hot.ms"]), "ms"),
            "query.rare_p50_ms": (median(s[qroot + ".rare.ms"]), "ms"),
            "query.multi_p50_ms": (median(s[qroot + ".multi.ms"]), "ms"),
            "query.tail_ms": (tail(s[qroot + ".ms"])[1], "ms"),
            "query.exhaustive_frac": (sum(exh) / len(exh), "ratio"),
            "wand.search_ms": (median(wand_ms) * 1e3, "ms"),
            "wand.docs_scored_per_posting": (
                w["docs_scored"] / max(1, w["postings_total"]), "ratio"),
            "wand.chunks_decoded_frac": (
                w["chunks_decoded"] / max(1, w["chunks_total"]), "ratio"),
            "query.dist_p50_ms": (median(s["dist.ms"]), "ms"),
            "query.dist_tail_ms": (tail(s["dist.ms"])[1], "ms"),
            "query.rpc_wait_ms": (median(rpc) * 1e3, "ms"),
            "query.actor_rtt_ms": (median(s["ping.ms"]), "ms"),
            "query.merge_ms": (median([d.get("query.merge", 0.0) / n_batch
                                       for d in ms_ops]) * 1e3, "ms"),
            "query.fanout_ms": (median([d["dist.msearch"] for d in ms_ops])
                                * 1e3, "ms"),
            "query.msearch_qps": (median(s["msearch.qps"]), "1/s"),
            "delta.apply_ms_p50": (median(s["delta.apply_s"]) * 1e3, "ms"),
            "delta.apply_ms_max": (max(s["delta.apply_s"]) * 1e3, "ms"),
            "manifest.reopen_ms_p50": (median(s["reopen.ms"]), "ms"),
            "manifest.reopen_ms_last": (median(s["reopen.last.ms"]), "ms"),
            "merge.compact_s": (median(s["compact.s"]), "s"),
            "merge.bytes_rewritten": (median(s["merge.bytes"]), "B"),
            "merge.docs_dropped": (median(s["merge.dropped"]), "count"),
            "trace.layer_self_s": (layers, "s"),
            "trace.wall_s": (twall, "s"),
            "trace.residual_s": (twall - layers, "s"),
            "trace.overhead_frac": (self.overhead(main), "ratio"),
        }
        return m

    def report(self) -> dict:
        """Everything beside the metric values: run metadata, sample
        counts and tail percentiles, the layer-sum check, failures."""
        ops = self.op_samples() if hasattr(self, "e2e") else []
        # query workloads: op_p50_ms is over distinct queries (their
        # scaled median runs), the tail over every raw run
        n_op = len(getattr(self, "e2e_per_query", ops))
        n_rate = (len(self.samples["delta.apply_s"])
                  if self.workload == "serve_under_write" else n_op)
        rep = {"meta": self.meta,
               "failed_frac": self.failed / max(1, self.attempted),
               "failures": self.failures,
               "samples": {"setup_s": len(self.samples["setup.unit_s"]),
                           "op_p50_ms": n_op, "op_runs": len(ops),
                           "work_per_s": n_rate},
               "setup_unit_s": self.samples["setup.unit_s"],
               "setup_unit_raw_s": self.samples["setup.unit_raw_s"]}
        if ops:
            p, v = tail(ops)
            rep["op_all_median_ms"] = median(ops)
            rep["op_tail"] = {"percentile": p, "ms": v, "n": len(ops)}
        if self.trace:
            layers, wall = self.layer_sum()
            rep["layer_sum"] = {"layer_self_s": layers, "wall_s": wall,
                                "residual_s": wall - layers,
                                "residual_frac": (wall - layers) / wall}
            qroot = self.QUERY_ROOT[self.workload]
            rep["tails"] = {
                "query.tail_ms": tail(self.samples[qroot + ".ms"])[0],
                "query.dist_tail_ms": tail(self.samples["dist.ms"])[0]}
            rep["samples"].update({
                "query": len(self.samples[qroot + ".ms"]),
                "dist": len(self.samples["dist.ms"]),
                "msearch": len(self.samples["msearch.qps"]),
                "delta": len(self.samples["delta.apply_s"]),
                "compact": len(self.samples["compact.s"]),
                "builds": len(self.builds)})
        return rep
