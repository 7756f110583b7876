"""The paper's primary contribution: constant-round deterministic coloring.

This subpackage implements Algorithms 1–4 of the paper on top of the
substrates in :mod:`repro.graph`, :mod:`repro.hashing`,
:mod:`repro.congested_clique`, :mod:`repro.mpc` and :mod:`repro.derand`:

* :mod:`repro.core.params` — the numeric parameters (the paper's exponents
  and the documented scaled mode),
* :mod:`repro.core.classification` — good/bad nodes and bins
  (Definition 3.1) and the cost function of Equation (1),
* :mod:`repro.core.partition` — ``Partition`` (Algorithm 2),
* :mod:`repro.core.driver` — the recursion shared by Algorithms 1 and 3
  (durability, pool health, level prefetch); each pipeline supplies its
  level step,
* :mod:`repro.core.color_reduce` — ``ColorReduce`` (Algorithm 1) with round
  and space accounting in either the CONGESTED CLIQUE or linear-space MPC
  context,
* :mod:`repro.core.local_coloring` — greedy list coloring of collected
  ``O(n)``-size instances,
* :mod:`repro.core.invariants` — the Lemma 3.2 invariant auditor,
* :mod:`repro.core.recursion` — recursion statistics and the closed-form
  bounds of Lemmas 3.11–3.14,
* :mod:`repro.core.context` — the execution contexts binding the algorithm
  to a simulated model,
* :mod:`repro.core.low_space` — Algorithms 3–4 for low-space MPC
  (Theorem 1.4).
"""

from repro.core.color_reduce import ColorReduce, ColorReduceResult
from repro.core.context import (
    CongestedCliqueContext,
    ExecutionContext,
    LinearSpaceMPCContext,
)
from repro.core.params import ColorReduceParameters
from repro.core.partition import Partition, PartitionResult

__all__ = [
    "ColorReduce",
    "ColorReduceResult",
    "ColorReduceParameters",
    "Partition",
    "PartitionResult",
    "ExecutionContext",
    "CongestedCliqueContext",
    "LinearSpaceMPCContext",
]
