"""Deterministic seed derivation and the replica estimator.

Per-task seeds come from (master seed, task label) through SHA-256, so tasks
can run in any order or in parallel without seed collisions and any artifact
can be regenerated from its manifest.

``replicate`` is the package's one mean-and-standard-error estimator over
independent seeded replicas: nested Monte Carlo and Ruelle cascades run
through it.  The finite-N disorder averages, which evaluate a whole replica
set at once, use its two halves, ``spawn`` and ``estimate``, directly.
"""

from __future__ import annotations

import hashlib

import numpy as np


def derive_seed(master: int, label: str) -> int:
    digest = hashlib.sha256(f"{master}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def spawn(seed, replicas: int) -> list:
    """The ``replicas`` child seed sequences of the seed sequence of ``seed``,
    one per independent replica."""
    return np.random.SeedSequence(seed).spawn(replicas)


def estimate(values: np.ndarray):
    """(mean, standard error, values) of replica values stacked along the
    last axis: mean and ``std(ddof=1) / sqrt(replicas)`` reduce along it."""
    replicas = values.shape[-1]
    return values.mean(axis=-1), values.std(axis=-1, ddof=1) / np.sqrt(replicas), values


def replicate(sample, replicas: int, seed):
    """``estimate`` of ``sample(child)`` over the ``spawn`` children of
    ``seed``.  The results (scalars or arrays of one shape) are stacked along
    a new last axis."""
    return estimate(np.stack([sample(child) for child in spawn(seed, replicas)], axis=-1))
