"""Per-degree transform registry with hit/miss accounting.

Building a :class:`~repro.fft.negacyclic.NegacyclicTransform` or
:class:`~repro.fft.folding.FoldedNegacyclicTransform` recomputes the twiddle
and twist tables — cheap once, wasteful per ciphertext.  Blind rotation
performs thousands of transforms of a handful of distinct degrees, so every
scalar and vectorized caller shares the instances cached here instead of
rebuilding them.  It is not a :class:`repro.registry.Registry` on purpose:
that maps *names* to factories somebody registered, this is a memo of
instances keyed by an integer degree, with nothing to register or list.

The registry also counts lookups: :func:`transform_cache_stats` returns the
hit/miss counters, and :func:`register_transform_cache_view` re-registers
them as a derived view on a :class:`~repro.obs.metrics.MetricsRegistry`, the
same pattern every other subsystem counter dict follows (see
:mod:`repro.obs.metrics`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.fft.folding import FoldedNegacyclicTransform
from repro.fft.negacyclic import NegacyclicTransform

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.obs.metrics import MetricsRegistry

#: Cached full-size transforms, keyed by polynomial degree.
_FULL: dict[int, NegacyclicTransform] = {}
#: Cached folded (half-size) transforms, keyed by polynomial degree.
_FOLDED: dict[int, FoldedNegacyclicTransform] = {}
#: Lookup counters for both caches (monotonic; cleared only with the caches).
_STATS = {"full_hits": 0, "full_misses": 0, "folded_hits": 0, "folded_misses": 0}


def get_negacyclic_transform(degree: int) -> NegacyclicTransform:
    """Return (and cache) the full-size negacyclic transform for ``degree``."""
    transform = _FULL.get(degree)
    if transform is None:
        _STATS["full_misses"] += 1
        transform = NegacyclicTransform(degree)
        _FULL[degree] = transform
    else:
        _STATS["full_hits"] += 1
    return transform


def get_folded_transform(degree: int) -> FoldedNegacyclicTransform:
    """Return (and cache) the folded negacyclic transform for ``degree``."""
    transform = _FOLDED.get(degree)
    if transform is None:
        _STATS["folded_misses"] += 1
        transform = FoldedNegacyclicTransform(degree)
        _FOLDED[degree] = transform
    else:
        _STATS["folded_hits"] += 1
    return transform


def transform_cache_stats() -> dict[str, int]:
    """Current hit/miss counters plus resident instance counts."""
    return {
        **_STATS,
        "full_entries": len(_FULL),
        "folded_entries": len(_FOLDED),
    }


def register_transform_cache_view(registry: "MetricsRegistry") -> None:
    """Expose the transform-cache counters as a derived registry view.

    The counters keep their one source of truth here; the view samples them
    at collection time, so they appear in ``collect()`` snapshots, ``STATS``
    wire frames and Prometheus renders as ``fft_transform_cache_{key}``.
    """
    registry.register_view(
        "fft_transform_cache", transform_cache_stats, "Negacyclic transform cache counters"
    )


def clear_transform_caches() -> None:
    """Test fixture: drop every cached transform and zero the counters."""
    _FULL.clear()
    _FOLDED.clear()
    for key in _STATS:
        _STATS[key] = 0
