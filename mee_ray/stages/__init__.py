"""Ray Data stages, and the one sizing rule of every actor pool in the
package (these stages, the fulltext broadcast scans, BPE):
:func:`actor_pool`."""


def actor_pool(max_size: int, min_size: int = 1) -> dict:
    """``map_batches`` keywords for a pool of ``min_size``..``max_size``
    actors that never holds the cluster's last CPU.

    Ray Data gives each actor one CPU unless told otherwise, and the
    read or map tasks that feed the pool need one too: on a 1-CPU
    cluster the first actor takes the only CPU and the pipeline makes
    no progress.  So each actor asks for an equal share of all CPUs
    but one, at most one CPU (0 on a 1-CPU cluster)."""
    import ray
    cpus = ray.cluster_resources().get("CPU", 1.0)
    return {"concurrency": (min_size, max_size),
            "num_cpus": min(1.0, max(0.0, cpus - 1) / max_size)}
