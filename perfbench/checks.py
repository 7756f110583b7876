"""The benchmark's own output checks and resource probes.

None of this runs inside a timed interval.  The coloring check is written
against the inputs only (graph adjacency and palette lists), not against
any of the library's validation helpers, so a defect in those helpers
cannot hide a wrong coloring.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import resource
import threading
from typing import Dict, List, Optional

import numpy as np


def coloring_digest(coloring: Dict[int, int]) -> str:
    """sha256 of the coloring as sorted ``(node, color)`` int64 pairs."""
    pairs = np.array(sorted(coloring.items()), dtype=np.int64).reshape(-1, 2)
    return hashlib.sha256(pairs.tobytes()).hexdigest()


def check_coloring(graph, palettes, coloring, implicit_delta: bool) -> Optional[str]:
    """``None`` if ``coloring`` is a proper list coloring, else the defect.

    Every node must be colored, no edge may join two equal colors, and each
    color must come from the node's palette.  ``implicit_delta`` marks the
    ``{0..Δ}`` palettes of plain (Δ+1)-coloring, checked as a range.
    """
    nodes = graph.nodes()
    if len(coloring) != len(nodes):
        return f"{len(coloring)} colored nodes for {len(nodes)} graph nodes"
    ids = np.fromiter(nodes, dtype=np.int64, count=len(nodes))
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    try:
        colors = np.fromiter((coloring[v] for v in nodes), dtype=np.int64, count=len(nodes))
    except KeyError as exc:
        return f"node {exc.args[0]} is uncolored"
    flat = np.fromiter(
        (x for edge in graph.edges() for x in edge), dtype=np.int64
    ).reshape(-1, 2)
    ends = order[np.searchsorted(sorted_ids, flat)]
    clashes = np.count_nonzero(colors[ends[:, 0]] == colors[ends[:, 1]])
    if clashes:
        return f"{clashes} edges join equally colored nodes"
    if implicit_delta:
        delta = int(np.bincount(ends.ravel(), minlength=len(nodes)).max(initial=0))
        outside = np.count_nonzero((colors < 0) | (colors > delta))
    else:
        lists = [sorted(palettes.iter_palette(v)) for v in nodes]
        sizes = np.fromiter((len(p) for p in lists), dtype=np.int64, count=len(nodes))
        entries = np.fromiter((c for p in lists for c in p), dtype=np.int64)
        owners = np.repeat(np.arange(len(nodes), dtype=np.int64), sizes)
        # Rank colors so (owner, color) packs into one sortable int64 key.
        universe = np.unique(np.concatenate([entries, colors]))
        width = len(universe)
        keys = owners * width + np.searchsorted(universe, entries)
        wanted = np.arange(len(nodes), dtype=np.int64) * width + np.searchsorted(universe, colors)
        keys.sort()
        at = np.minimum(np.searchsorted(keys, wanted), max(len(keys) - 1, 0))
        outside = np.count_nonzero(keys[at] != wanted) if len(keys) else len(nodes)
    if outside:
        return f"{outside} nodes colored outside their palette"
    return None


def pool_leftovers() -> List[str]:
    """Shut the scoring pool down and report anything it left behind.

    Returns the live child processes and this process's ``/dev/shm``
    segments still present after :func:`shutdown_executors` — a leftover
    means the pool leaked past the end of a coloring call.
    """
    from repro.parallel.executor import shutdown_executors
    from repro.parallel.slabs import SEGMENT_PREFIX

    shutdown_executors()
    leftovers = [f"process {p.pid}" for p in multiprocessing.active_children()]
    prefix = f"{SEGMENT_PREFIX}{os.getpid()}_"
    if os.path.isdir("/dev/shm"):
        leftovers += [f"/dev/shm/{e}" for e in os.listdir("/dev/shm") if e.startswith(prefix)]
    return leftovers


def _child_pids() -> List[int]:
    pids: List[int] = []
    for tid in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{tid}/children", encoding="ascii") as handle:
                pids += [int(p) for p in handle.read().split()]
        except OSError:
            continue
    return pids


def _private_kib(pid: int) -> int:
    """Memory only ``pid`` maps (Private_Clean + Private_Dirty), in KiB."""
    total = 0
    try:
        with open(f"/proc/{pid}/smaps_rollup", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(("Private_Clean:", "Private_Dirty:")):
                    total += int(line.split()[1])
    except OSError:
        return 0
    return total


class WorkerMemory:
    """Samples the private memory of this process's children (pool workers).

    Forked workers share the parent's pages, so their own resident size
    double-counts the parent; the private part is what they add.  The
    sampler records the largest sum over workers seen at one instant.
    """

    PERIOD_S = 0.25

    def __init__(self) -> None:
        self.peak_kib = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.wait(self.PERIOD_S):
            total = sum(_private_kib(pid) for pid in _child_pids())
            self.peak_kib = max(self.peak_kib, total)

    def __enter__(self) -> "WorkerMemory":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> bool:
        self._stop.set()
        self._thread.join()
        return False


def own_peak_rss_mib() -> float:
    """This process's resident high-water mark (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
