"""A fixed calibration kernel that measures how fast the machine is right now.

On a shared machine, neighbours slow the CPU down through shared caches, and
one fresh process can run 10-15 % faster or slower than the next. The
benchmark's times are CPU seconds, which leave out the time the hypervisor
takes the vCPU away (steal), but not this slowdown.

The kernel does the same fixed work on every call, and none of that work is
cfgrank code. The benchmark takes the kernel's CPU time in the same process
as the thing it measures: twice before a pass and twice after it, or once
after a setup import. Then it scales the CPU time to the speed of a
reference machine:

    CPU time at reference speed = measured CPU time * REFERENCE_S / kernel median

A change to cfgrank does not move the kernel. A slowdown of the machine or
of the process moves both, so it cancels.

The kernel does the two kinds of work that dominate the workloads:
- pure-Python BFS sweeps over adjacency lists, then sorting and summing a
  long list of distances (metrics, graph);
- numpy calls on arrays of a few hundred values (the RF split search).

Usage: python3 perfbench/calibration.py prints the kernel's median CPU time
on this machine.
"""

from __future__ import annotations

import random
import time
from collections import deque

import numpy as np

# a round figure near the kernel's median on the reference machine (2 vCPUs,
# Python 3.11, numpy 2.4), where it ran 0.10-0.13 s over a day
REFERENCE_S = 0.1
_NODES = 1000
_SOURCES = range(0, _NODES, 12)
_SEED = 20190211


def _graph() -> list[list[int]]:
    """An undirected chain with random chords, like a large CFG's."""
    rng = random.Random(_SEED)
    adj: list[list[int]] = [[] for _ in range(_NODES)]
    edges = [(u, u + 1) for u in range(_NODES - 1)]
    edges += [(u, rng.randrange(_NODES)) for u in range(0, _NODES, 3)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


_ADJ = _graph()
_COLUMNS = np.random.default_rng(_SEED).standard_normal((900, 400))


def _sweeps() -> float:
    """BFS sweeps, then the summary statistics of every distance found."""
    distances: list[int] = []
    for s in _SOURCES:
        dist = [-1] * _NODES
        dist[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v in _ADJ[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        distances.extend(dist)
    ordered = sorted(float(d) for d in distances)
    mean = sum(ordered) / len(ordered)
    return sum((d - mean) ** 2 for d in ordered)


def _splits() -> float:
    """The split search of a decision tree on small columns."""
    acc = 0.0
    for col in _COLUMNS:
        order = np.argsort(col, kind="stable")
        xs = col[order]
        change = np.flatnonzero(xs[1:] != xs[:-1]) + 1
        acc += float(np.cumsum(xs)[change - 1].min())
    return acc


PARTS = (_sweeps, _splits)


def kernel_cpu_s() -> float:
    """CPU seconds this thread spends in one call of the kernel."""
    t = time.thread_time()
    for part in PARTS:
        part()
    return time.thread_time() - t


if __name__ == "__main__":
    import statistics

    samples = [kernel_cpu_s() for _ in range(30)]
    print(f"kernel median {statistics.median(samples):.6f} s over {len(samples)} calls "
          f"(REFERENCE_S {REFERENCE_S})")
