"""Parameters of the low-space MPC coloring algorithm (Section 4).

The paper sets ``δ = ε/22`` and uses

* ``n^δ`` bins per level of ``LowSpacePartition``,
* degree threshold ``n^{7δ}`` below which nodes are moved to ``G_0`` and
  colored via the MIS reduction,
* machine chunks of between ``n^{7δ}`` and ``2 n^{7δ}`` neighbors/colors for
  the Definition 4.1 classification.

As with the linear-space parameters, the literal exponents only separate
from small constants at astronomically large ``n``; the scaled mode fixes
the bin count, degree threshold and chunk size explicitly so multi-level
recursion and the MIS path are exercised on laptop-size graphs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class LowSpaceParameters:
    """Numeric knobs of ``LowSpaceColorReduce`` / ``LowSpacePartition``."""

    epsilon: float = 0.5
    num_bins_override: Optional[int] = None
    low_degree_threshold_override: Optional[int] = None
    machine_chunk_override: Optional[int] = None
    degree_slack_exponent: float = 0.6
    palette_slack_exponent: float = 0.7
    independence: int = 4
    max_recursion_depth: int = 20
    selection_max_candidates: int = 2048
    selection_batch_size: int = 16
    #: Shard candidate-slab scoring across this many worker processes
    #: (:mod:`repro.parallel`); outcomes are bit-identical for every value
    #: and ``1`` (default) is the zero-overhead in-process path — see
    #: :attr:`repro.core.params.ColorReduceParameters.parallel_workers`.
    parallel_workers: int = 1
    #: Self-healing knobs of the worker pool (failed shard attempts before
    #: an in-process rescue, per-shard reply timeout, circuit-breaker
    #: threshold and cool-down), forwarded as a
    #: :class:`repro.parallel.executor.RecoveryPolicy` — see
    #: :attr:`repro.core.params.ColorReduceParameters.parallel_max_retries`
    #: and friends.  Ignored when ``parallel_workers == 1``.
    parallel_max_retries: int = 2
    parallel_shard_timeout: float = 30.0
    parallel_breaker_threshold: int = 3
    parallel_breaker_cooldown: int = 8
    #: Payload transport across the process boundary — ``shm`` (default,
    #: zero-copy shared-memory segments) or ``pickle`` (the differential
    #: reference); see
    #: :attr:`repro.core.params.ColorReduceParameters.parallel_transport`.
    parallel_transport: str = "shm"
    #: Explicit engagement floor (slab sizes below it stay in-process);
    #: ``None`` = adaptive — see :attr:`repro.core.params.ColorReduceParameters.parallel_min_slab_pairs`.
    parallel_min_slab_pairs: Optional[int] = None
    #: Segmented cross-bin head-batch scoring per recursion level
    #: (:mod:`repro.core.level`); bit-identical outcomes either way.  See
    #: :attr:`repro.core.params.ColorReduceParameters.level_use_batch`.
    level_use_batch: bool = True
    mis_independence: int = 4
    #: Run-level durability knobs (:mod:`repro.runtime`): periodic
    #: checkpoints to ``checkpoint_path`` (flushed every
    #: ``checkpoint_every_levels`` recorded subtrees), fingerprint-validated
    #: resume from ``resume_path``, a soft RSS budget and a wall-clock
    #: deadline — see
    #: :attr:`repro.core.params.ColorReduceParameters.checkpoint_path` and
    #: friends.  Resumed/degraded runs stay bit-identical.
    checkpoint_path: Optional[str] = None
    resume_path: Optional[str] = None
    checkpoint_every_levels: int = 1
    memory_budget_mb: Optional[float] = None
    deadline_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon <= 1.0:
            raise ConfigurationError("epsilon must be in (0, 1]")
        if self.independence < 4 or self.independence % 2 != 0:
            raise ConfigurationError("independence must be an even integer >= 4")
        if self.num_bins_override is not None and self.num_bins_override < 2:
            raise ConfigurationError("num_bins_override must be at least 2")
        if (
            self.low_degree_threshold_override is not None
            and self.low_degree_threshold_override < 1
        ):
            raise ConfigurationError("low_degree_threshold_override must be positive")
        if self.machine_chunk_override is not None and self.machine_chunk_override < 1:
            raise ConfigurationError("machine_chunk_override must be positive")
        if self.parallel_workers < 1:
            raise ConfigurationError("parallel_workers must be at least 1")
        if self.parallel_max_retries < 0:
            raise ConfigurationError("parallel_max_retries must be >= 0")
        if self.parallel_shard_timeout <= 0:
            raise ConfigurationError("parallel_shard_timeout must be positive")
        if self.parallel_breaker_threshold < 1:
            raise ConfigurationError("parallel_breaker_threshold must be >= 1")
        if self.parallel_breaker_cooldown < 1:
            raise ConfigurationError("parallel_breaker_cooldown must be >= 1")
        if self.parallel_transport not in ("shm", "pickle"):
            raise ConfigurationError(
                "parallel_transport must be 'shm' or 'pickle'"
            )
        if self.parallel_min_slab_pairs is not None and self.parallel_min_slab_pairs < 0:
            raise ConfigurationError("parallel_min_slab_pairs must be >= 0")
        from repro.core.params import _validate_durability

        _validate_durability(self)

    def durability_enabled(self) -> bool:
        """Whether any run-level durability knob is set (:mod:`repro.runtime`)."""
        from repro.core.params import _durability_enabled

        return _durability_enabled(self)

    def parallel_recovery_policy(self):
        """The pool's :class:`repro.parallel.executor.RecoveryPolicy`, or
        ``None`` when ``parallel_workers == 1``."""
        if self.parallel_workers < 2:
            return None
        from repro.parallel.executor import RecoveryPolicy

        return RecoveryPolicy(
            max_shard_retries=self.parallel_max_retries,
            shard_timeout=self.parallel_shard_timeout,
            breaker_threshold=self.parallel_breaker_threshold,
            breaker_cooldown=self.parallel_breaker_cooldown,
        )

    # ------------------------------------------------------------------
    @classmethod
    def paper(cls, epsilon: float = 0.5, **overrides) -> "LowSpaceParameters":
        """The literal exponents for a given ``ε`` (``δ = ε/22``)."""
        return cls(epsilon=epsilon, **overrides)

    @classmethod
    def scaled(
        cls,
        num_bins: int,
        low_degree_threshold: int,
        machine_chunk: Optional[int] = None,
        **overrides,
    ) -> "LowSpaceParameters":
        """Explicit bin count / degree threshold for laptop-scale runs."""
        return cls(
            num_bins_override=num_bins,
            low_degree_threshold_override=low_degree_threshold,
            machine_chunk_override=(
                machine_chunk if machine_chunk is not None else low_degree_threshold
            ),
            **overrides,
        )

    @property
    def delta(self) -> float:
        """The paper's ``δ = ε / 22``."""
        return self.epsilon / 22.0

    @property
    def is_scaled(self) -> bool:
        return any(
            override is not None
            for override in (
                self.num_bins_override,
                self.low_degree_threshold_override,
                self.machine_chunk_override,
            )
        )

    # ------------------------------------------------------------------
    def num_bins(self, num_nodes: int) -> int:
        """Bins per level: ``n^δ`` (clamped to at least 2)."""
        if self.num_bins_override is not None:
            return self.num_bins_override
        return max(2, int(math.floor(math.pow(num_nodes, self.delta))))

    def low_degree_threshold(self, num_nodes: int) -> int:
        """Nodes with degree at most ``n^{7δ}`` go to ``G_0`` (MIS path).

        The floor of 2 only matters for laptop-scale ``n`` (where ``n^{7δ}``
        has not yet separated from 1): degree-2 instances are trivially
        within the MIS reduction's budget, and partitioning them further
        would make no progress.
        """
        if self.low_degree_threshold_override is not None:
            return self.low_degree_threshold_override
        return max(2, int(math.floor(math.pow(num_nodes, 7.0 * self.delta))))

    def machine_chunk(self, num_nodes: int) -> int:
        """Chunk size for the ``M_v^N`` / ``M_v^C`` machine groups."""
        if self.machine_chunk_override is not None:
            return self.machine_chunk_override
        return max(1, self.low_degree_threshold(num_nodes))

    def degree_slack(self, chunk_size: int) -> float:
        """The ``d(x)^0.6`` slack of Definition 4.1."""
        return math.pow(max(chunk_size, 1), self.degree_slack_exponent)

    def palette_slack(self, chunk_size: int) -> float:
        """The ``p(x)^0.7`` slack of Definition 4.1."""
        return math.pow(max(chunk_size, 1), self.palette_slack_exponent)
