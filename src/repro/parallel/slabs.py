"""Serialization of candidate slabs and cost evaluators across processes.

Two kinds of payload cross the process boundary, with very different
lifetimes:

**The evaluator envelope** — the batched cost evaluator
(:class:`repro.core.classification.PartitionCostEvaluator` or
:class:`repro.core.low_space.machine_sets.LowSpaceCostEvaluator`) pickled
*once per Partition level* and cached by every worker.  It carries the
instance (graph, palettes, parameters) but **not** the prepared static
arrays: :class:`repro.hashing.batch.BatchCostEvaluatorBase` drops its
``_prep`` cache on pickling (the dict holds a module reference and is a pure
cache), so each worker rebuilds the arrays once on its first slab and reuses
them for every later slab of the level — the static arrays are shipped (as
their compact source-of-truth: CSR view, palette store) once per level, not
once per slab.

**The slab payload** — one shard of candidate pairs, encoded compactly as
coefficient rows plus one ``(prime, domain, range)`` descriptor per side.
The selection guarantees slab uniformity (all pairs from the same two
families; re-asserted here), so per-pair family metadata would be pure
overhead.  Decoded functions hash identically to the originals — the cost
kernels read only ``coefficients``/``prime``/``domain_size``/``range_size``
— but carry an empty :class:`~repro.hashing.seeds.Seed`: seeds never cross
the boundary because workers return *costs*, and the parent keeps the
original pair objects for the selection outcome.

Shared-memory transport
-----------------------
Under the default ``shm`` transport both payload kinds move their bulk data
out of band through named ``multiprocessing.shared_memory`` segments; only
small control tuples (segment name, generation, manifest, shard bounds)
cross the queues.  The parent *owns* every segment it publishes: each one
is recorded in a process-wide registry and unlinked exactly once — on
evaluator-cache eviction, executor close, end of the slab's job, or at
interpreter exit (``atexit``) as the last resort.  Workers only ever attach
(read-only by convention) and detach; a worker death can therefore never
leak a segment.  Every segment starts with an 8-byte generation counter
that attach verifies against the control message, so a shard can never be
scored against a recycled or stale segment.  Evaluators that cannot export
their static arrays (e.g. palettes whose colors exceed ``int64``) and
slabs whose coefficients exceed ``int64`` fall back to the original pickle
envelope per payload — transparently, and bit-identically.
"""

from __future__ import annotations

import atexit
import itertools
import os
import pickle
import struct
from typing import Dict, List, Optional, Sequence, Tuple

from repro.derand.cost import assert_uniform_pair_families
from repro.errors import ShardIntegrityError
from repro.hashing.family import HashFunction
from repro.hashing.seeds import Seed

try:  # pragma: no cover - present on every supported platform/python
    from multiprocessing import resource_tracker as _resource_tracker
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - platform without shm support
    _resource_tracker = None
    _shared_memory = None

Pair = Tuple[HashFunction, HashFunction]

#: ``(prime, domain_size, range_size)`` of one hash family side.
FamilyDescriptor = Tuple[int, int, int]

#: Encoded slab: the two family descriptors plus one coefficient row per
#: pair and side, aligned by pair index.
SlabPayload = Tuple[
    FamilyDescriptor,
    FamilyDescriptor,
    List[Tuple[int, ...]],
    List[Tuple[int, ...]],
]


def encode_slab(pairs: Sequence[Pair]) -> SlabPayload:
    """Encode a uniform-family shard of candidate pairs for shipping."""
    assert_uniform_pair_families(pairs)
    h1_ref, h2_ref = pairs[0]
    descriptor1 = (h1_ref.prime, h1_ref.domain_size, h1_ref.range_size)
    descriptor2 = (h2_ref.prime, h2_ref.domain_size, h2_ref.range_size)
    coeffs1 = [tuple(h1.coefficients) for h1, _ in pairs]
    coeffs2 = [tuple(h2.coefficients) for _, h2 in pairs]
    return descriptor1, descriptor2, coeffs1, coeffs2


def decode_slab(payload: SlabPayload) -> List[Pair]:
    """Rebuild the cost-equivalent pairs of an encoded shard."""
    descriptor1, descriptor2, coeffs1, coeffs2 = payload
    prime1, domain1, range1 = descriptor1
    prime2, domain2, range2 = descriptor2
    empty = Seed.empty()
    return [
        (
            HashFunction(
                coefficients=row1,
                prime=prime1,
                domain_size=domain1,
                range_size=range1,
                seed=empty,
            ),
            HashFunction(
                coefficients=row2,
                prime=prime2,
                domain_size=domain2,
                range_size=range2,
                seed=empty,
            ),
        )
        for row1, row2 in zip(coeffs1, coeffs2)
    ]


def encode_evaluator(evaluator) -> bytes:
    """Pickle an evaluator for the once-per-level broadcast to workers.

    ``BatchCostEvaluatorBase.__getstate__`` excludes the prepared static
    arrays, so the envelope is the instance itself (graph, palettes,
    parameters) and each worker re-prepares once.
    """
    return pickle.dumps(evaluator, protocol=pickle.HIGHEST_PROTOCOL)


def decode_evaluator(blob: bytes):
    """Inverse of :func:`encode_evaluator` (runs in the worker process)."""
    return pickle.loads(blob)


# --------------------------------------------------------------------------
# Shared-memory segments
# --------------------------------------------------------------------------

#: Prefix of every segment this process creates — the lifecycle tests and
#: the CI post-job hygiene check inventory ``/dev/shm`` for this prefix.
SEGMENT_PREFIX = "repro_"

#: Every segment starts with its generation counter so a worker attaching
#: to a (theoretically) recycled name fails the integrity check instead of
#: silently scoring against foreign bytes.
_GENERATION_HEADER = struct.Struct("<q")

_segment_names = itertools.count(1)
_generations = itertools.count(1)

#: ``name -> SharedMemory`` for every segment this process created and has
#: not yet unlinked.  Parent-side only: workers never create segments, so
#: an owner crash is the only way to leak and ``atexit`` plus the CI
#: ``/dev/shm`` check cover that.
_OWNED_SEGMENTS: Dict[str, object] = {}

#: Manifest of one exported array: ``(key, dtype.str, shape, offset)``.
ArrayManifest = Tuple[Tuple[str, str, Tuple[int, ...], int], ...]


def shared_memory_available() -> bool:
    """Whether this platform can back the ``shm`` transport at all."""
    return _shared_memory is not None


def publish_arrays(arrays: Dict[str, "object"], generation: int):
    """Copy named arrays into one new parent-owned segment.

    Returns ``(segment_name, manifest)``; the caller must eventually pass
    the name to :func:`unlink_segment`.  Arrays are laid out C-contiguously
    at 8-byte-aligned offsets after the generation header.
    """
    import numpy as np

    offset = _GENERATION_HEADER.size
    prepared = []
    manifest = []
    for key, array in arrays.items():
        contiguous = np.ascontiguousarray(array)
        offset = (offset + 7) & ~7
        manifest.append((key, contiguous.dtype.str, contiguous.shape, offset))
        prepared.append((offset, contiguous))
        offset += contiguous.nbytes
    name = f"{SEGMENT_PREFIX}{os.getpid()}_{next(_segment_names)}"
    segment = _shared_memory.SharedMemory(name=name, create=True, size=offset)
    _GENERATION_HEADER.pack_into(segment.buf, 0, generation)
    for start, contiguous in prepared:
        if contiguous.nbytes:
            view = np.ndarray(
                contiguous.shape,
                dtype=contiguous.dtype,
                buffer=segment.buf,
                offset=start,
            )
            view[...] = contiguous
            del view
    _OWNED_SEGMENTS[name] = segment
    return name, tuple(manifest)


def _inherited_tracker(after_fork: bool) -> bool:
    """Whether this process talks to a resource tracker another one started.

    A spawned child is handed its parent's running tracker (descriptor
    set, no pid) before it imports this module; a forked child shares the
    parent's tracker if it was running at the fork.
    """
    tracker = getattr(_resource_tracker, "_resource_tracker", None)
    if getattr(tracker, "_fd", None) is None:
        return False
    return after_fork or getattr(tracker, "_pid", None) is None


_TRACKER_INHERITED = _inherited_tracker(after_fork=False)


def _note_fork() -> None:
    global _TRACKER_INHERITED
    _TRACKER_INHERITED = _inherited_tracker(after_fork=True)


if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX
    os.register_at_fork(after_in_child=_note_fork)


def attach_arrays(name: str, generation: int, manifest: ArrayManifest):
    """Attach to a published segment and rebuild its array views in place.

    Runs in the worker.  Returns ``(segment, arrays)`` — the caller owns
    the *handle* (must ``close`` it after dropping the views) but never the
    segment itself.  Raises :class:`ShardIntegrityError` when the stored
    generation does not match the control message.
    """
    import numpy as np

    segment = _shared_memory.SharedMemory(name=name)
    # bpo-39959: attaching registers the segment with this process's
    # resource tracker, which would unlink it at process exit even though
    # the parent still owns it.  Undo the registration (Python < 3.13 has
    # no ``track=False``) — but only in a tracker this process started for
    # itself.  The owner's tracker (in the owner, in spawned workers, and
    # in workers forked after it started) holds the owner's registration
    # under the same name; unregistering there would drop it, leaving the
    # live segment untracked and the owner's unlink failing in the tracker.
    shared = _TRACKER_INHERITED or name in _OWNED_SEGMENTS
    if _resource_tracker is not None and not shared:
        try:
            _resource_tracker.unregister(segment._name, "shared_memory")
        except Exception:  # pragma: no cover - tracker API drift
            pass
    stored = _GENERATION_HEADER.unpack_from(segment.buf, 0)[0]
    if stored != generation:
        segment.close()
        raise ShardIntegrityError(
            f"segment {name!r} carries generation {stored}, expected "
            f"{generation} — stale or recycled segment"
        )
    views = {
        key: np.ndarray(shape, dtype=np.dtype(dtype), buffer=segment.buf, offset=off)
        for key, dtype, shape, off in manifest
    }
    return segment, views


def unlink_segment(name: str) -> None:
    """Destroy one owned segment (idempotent; unknown names are ignored)."""
    segment = _OWNED_SEGMENTS.pop(name, None)
    if segment is None:
        return
    try:
        segment.close()
    except BufferError:  # pragma: no cover - a stray parent-side view
        pass
    try:
        segment.unlink()
    except FileNotFoundError:  # pragma: no cover - already gone
        pass


def unlink_all_segments() -> None:
    """Destroy every still-owned segment (executor close / ``atexit``)."""
    for name in list(_OWNED_SEGMENTS):
        unlink_segment(name)


atexit.register(unlink_all_segments)


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a live process (EPERM counts as alive)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - foreign but live
        return True
    except OSError:  # pragma: no cover - conservative: assume alive
        return True
    return True


def sweep_orphan_segments(shm_dir: str = "/dev/shm") -> int:
    """Unlink ``repro_<pid>_*`` segments whose owner process is dead.

    A SIGKILLed (or OOM-killed) owner never runs its ``atexit`` hook, so
    its segments survive in ``/dev/shm`` until reboot.  Every segment name
    embeds the owner's pid (see :func:`publish_arrays`), so a new pool can
    reclaim them at startup: parse the pid, probe liveness with
    ``kill(pid, 0)``, and unlink the files of dead owners.  Segments of
    live owners (a concurrent run) and names that do not parse are left
    alone, as is this process's own inventory (``_OWNED_SEGMENTS`` covers
    those).  Returns the number of segments removed; unavailable or
    non-Linux ``shm_dir`` simply yields 0.
    """
    try:
        entries = os.listdir(shm_dir)
    except OSError:
        return 0
    own_pid = os.getpid()
    swept = 0
    for entry in entries:
        if not entry.startswith(SEGMENT_PREFIX):
            continue
        remainder = entry[len(SEGMENT_PREFIX):]
        pid_text, _, counter = remainder.partition("_")
        if not pid_text.isdigit() or not counter:
            continue
        pid = int(pid_text)
        if pid == own_pid or _pid_alive(pid):
            continue
        try:
            os.unlink(os.path.join(shm_dir, entry))
        except FileNotFoundError:
            continue
        except OSError:  # pragma: no cover - permissions, races
            continue
        swept += 1
    return swept


def release_attached(segment, evaluator=None) -> None:
    """Worker-side detach: drop an evaluator's views and close the handle.

    Closing a handle whose buffer still has exported views raises
    ``BufferError``; dropping ``_prep`` first releases every view an
    evaluator rebuilt over the segment, so the close normally succeeds and
    the worker's mapping is gone immediately rather than at GC time.
    """
    if evaluator is not None:
        evaluator._prep = None
    try:
        segment.close()
    except BufferError:  # a stray view survives; refcounting finishes it
        pass


# --------------------------------------------------------------------------
# Evaluator envelopes (pickle or shared-memory)
# --------------------------------------------------------------------------


def publish_evaluator(evaluator, transport: str = "shm"):
    """Build the once-per-level broadcast envelope for an evaluator.

    Returns ``("shm", meta, name, generation, manifest)`` when the
    evaluator exports its static arrays (see
    :meth:`repro.hashing.batch.BatchCostEvaluatorBase.shared_payload`) and
    the transport allows it, else ``("pickle", blob)``.  The parent owns
    the published segment; pair the envelope with
    :func:`envelope_segments` + :func:`unlink_segment` on eviction/close.
    """
    if transport == "shm" and _shared_memory is not None:
        payload = evaluator.shared_payload()
        if payload is not None:
            state, arrays = payload
            generation = next(_generations)
            name, manifest = publish_arrays(arrays, generation)
            meta = pickle.dumps(
                (type(evaluator), state), protocol=pickle.HIGHEST_PROTOCOL
            )
            return ("shm", meta, name, generation, manifest)
    return ("pickle", encode_evaluator(evaluator))


def restore_evaluator(envelope):
    """Worker-side inverse of :func:`publish_evaluator`.

    For shm envelopes the restored evaluator's ``_prep`` holds NumPy views
    directly over the attached segment (zero copies); the handle is kept on
    the instance as ``_shm_segment`` so cache eviction can detach it via
    :func:`release_attached`.
    """
    kind = envelope[0]
    if kind == "pickle":
        return decode_evaluator(envelope[1])
    _, meta, name, generation, manifest = envelope
    cls, state = pickle.loads(meta)
    segment, arrays = attach_arrays(name, generation, manifest)
    try:
        evaluator = cls.from_shared_payload(state, arrays)
    except BaseException:
        del arrays
        release_attached(segment)
        raise
    evaluator._shm_segment = segment
    return evaluator


def envelope_segments(envelope) -> List[str]:
    """Names of the segments an envelope references (parent lifecycle)."""
    return [envelope[2]] if envelope[0] == "shm" else []


def envelope_cost(envelope) -> Tuple[int, int]:
    """``(shipped_bytes, shared_bytes)`` one worker pays to load this
    envelope: pickled bytes crossing the queue vs bytes made visible via
    shared memory."""
    if envelope[0] == "pickle":
        return len(envelope[1]), 0
    import numpy as np

    manifest = envelope[4]
    shared = sum(
        int(np.dtype(dtype).itemsize) * int(np.prod(shape, dtype=np.int64))
        for _, dtype, shape, _ in manifest
    )
    return len(envelope[1]), shared


# --------------------------------------------------------------------------
# Slab segments (per scoring job)
# --------------------------------------------------------------------------


class SlabSegment:
    """Parent-side handle for one job's coefficient matrices in shm."""

    __slots__ = ("name", "generation", "manifest", "descriptor1", "descriptor2", "nbytes")

    def __init__(self, name, generation, manifest, descriptor1, descriptor2, nbytes):
        self.name = name
        self.generation = generation
        self.manifest = manifest
        self.descriptor1 = descriptor1
        self.descriptor2 = descriptor2
        self.nbytes = nbytes

    def shard_payload(self, start: int, stop: int):
        """Control tuple a worker turns back into pairs via
        :func:`open_slab_shard` — shard bounds only, no coefficients."""
        return (
            "shmslab",
            self.name,
            self.generation,
            self.manifest,
            self.descriptor1,
            self.descriptor2,
            start,
            stop,
        )


def publish_slab(pairs: Sequence[Pair]) -> Optional[SlabSegment]:
    """Publish one slab's coefficient matrices into a job-scoped segment.

    Returns ``None`` when the coefficients do not fit ``int64`` (primes
    beyond 2**63 take the pickle fallback) or shm is unavailable; the
    caller must :func:`unlink_segment` the returned segment at job end.
    """
    if _shared_memory is None:
        return None
    import numpy as np

    assert_uniform_pair_families(pairs)
    h1_ref, h2_ref = pairs[0]
    try:
        coeffs1 = np.asarray([h1.coefficients for h1, _ in pairs], dtype=np.int64)
        coeffs2 = np.asarray([h2.coefficients for _, h2 in pairs], dtype=np.int64)
    except (OverflowError, TypeError, ValueError):
        return None
    generation = next(_generations)
    name, manifest = publish_arrays(
        {"coeffs1": coeffs1, "coeffs2": coeffs2}, generation
    )
    return SlabSegment(
        name=name,
        generation=generation,
        manifest=manifest,
        descriptor1=(h1_ref.prime, h1_ref.domain_size, h1_ref.range_size),
        descriptor2=(h2_ref.prime, h2_ref.domain_size, h2_ref.range_size),
        nbytes=int(coeffs1.nbytes) + int(coeffs2.nbytes),
    )


def open_slab_shard(payload) -> List[Pair]:
    """Worker-side: attach a slab segment, copy out one shard's rows as
    Python ints, detach, and rebuild the pairs.

    The copy is deliberate — slab segments die with their job, so views
    must not outlive this call — and exact: ``tolist`` yields Python ints,
    matching :func:`decode_slab` bit-for-bit.
    """
    _, name, generation, manifest, descriptor1, descriptor2, start, stop = payload
    segment, arrays = attach_arrays(name, generation, manifest)
    try:
        coeffs1 = [tuple(row) for row in arrays["coeffs1"][start:stop].tolist()]
        coeffs2 = [tuple(row) for row in arrays["coeffs2"][start:stop].tolist()]
    finally:
        del arrays
        release_attached(segment)
    return decode_slab((descriptor1, descriptor2, coeffs1, coeffs2))
