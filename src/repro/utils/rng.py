"""Deterministic random-number management.

Every stochastic component in the reproduction (ground-truth noise, workload
generation, predictor initialization, Bayesian optimization) accepts either a
seed or a :class:`numpy.random.Generator`.  These helpers normalize the two
and spawn independent streams so that experiments are reproducible
end-to-end from a single root seed.
"""

from __future__ import annotations

import numpy as np

RngLike = "int | np.random.Generator | None"


def ensure_rng(rng: int | np.random.Generator | None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``rng``.

    ``None`` yields a fresh non-deterministic generator, an ``int`` seeds a
    new PCG64 stream, and an existing generator is passed through untouched.
    """
    if rng is None:
        return np.random.default_rng()
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng))
    raise TypeError(f"expected int, Generator or None, got {type(rng)!r}")


def spawn_rngs(seed: int, n: int) -> list[np.random.Generator]:
    """Spawn ``n`` statistically independent generators from one seed."""
    seq = np.random.SeedSequence(seed)
    return [np.random.default_rng(s) for s in seq.spawn(n)]
