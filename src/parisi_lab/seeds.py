"""Deterministic seed derivation and the replica estimator.

Per-task seeds come from (master seed, task label) through SHA-256, so tasks
can run in any order or in parallel without seed collisions and any artifact
can be regenerated from its manifest.

``replicate`` is the package's one mean-and-standard-error estimator over
independent seeded replicas: nested Monte Carlo, Ruelle cascades and the
finite-N disorder averages all run through it.
"""

from __future__ import annotations

import hashlib

import numpy as np


def derive_seed(master: int, label: str) -> int:
    digest = hashlib.sha256(f"{master}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def replicate(sample, replicas: int, seed):
    """(mean, standard error, values) of ``sample(child)`` over the
    ``replicas`` children spawned by the seed sequence of ``seed``.  The
    results (scalars or arrays of one shape) are stacked along a new last
    axis; mean and ``std(ddof=1) / sqrt(replicas)`` reduce along it."""
    values = np.stack([sample(child) for child in np.random.SeedSequence(seed).spawn(replicas)], axis=-1)
    return values.mean(axis=-1), values.std(axis=-1, ddof=1) / np.sqrt(replicas), values
