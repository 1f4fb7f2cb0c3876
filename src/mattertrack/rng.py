"""Deterministic random-stream derivation.

Every random draw in the package comes from a named substream of one integer
seed.  Substreams are keyed by small integer paths (domain tag, counter,
frame, ...), so results never depend on the order in which components are
computed.

A Gibbs sweep's stream is keyed by the counter alone, ``(SWEEP, counter)``:
one Generator per sweep, from which the sweep's steps take their variates in
schedule order (the draw-order contract of ``mattertrack.gibbs``).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Domain tags keep unrelated parts of the pipeline on disjoint streams.
FORWARD = 1      # forward model sampling
INIT = 2         # frame-0 initialization (k-means seeding etc.)
SWEEP = 3        # Gibbs sweeps, one stream per sweep
DATA = 4         # observation resampling (consistency checking)
SUBSAMPLE = 5    # per-frame data-point subsampling
SCENE = 6        # synthetic scene generation
EVAL = 7         # probe sampling in evaluation


def substream(seed: int, *path: int) -> np.random.Generator:
    """Generator for the stream addressed by (seed, *path).

    Distinct paths yield independent streams; the same path always yields the
    same bit sequence.
    """
    key = tuple(int(p) for p in path)
    if any(p < 0 for p in key):
        raise ValueError(f"stream path entries must be non-negative, got {key}")
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=key))


@dataclass(frozen=True)
class RngState:
    """Serializable cursor into the seed's stream space.

    ``counter`` advances once per Gibbs sweep (or other state-producing
    operation), so re-running from a dumped state continues the exact same
    stream.
    """

    seed: int
    counter: int = 0

    def stream(self, domain: int, *path: int) -> np.random.Generator:
        return substream(self.seed, domain, self.counter, *path)

    def tick(self) -> "RngState":
        return RngState(self.seed, self.counter + 1)

    def to_dict(self) -> dict:
        return {"seed": int(self.seed), "counter": int(self.counter)}

    @classmethod
    def from_dict(cls, d: dict) -> "RngState":
        return cls(seed=int(d["seed"]), counter=int(d["counter"]))
