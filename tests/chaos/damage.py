"""Snapshot damage the chaos suite applies from outside a campaign.

A campaign meets two kinds of damage to what it wrote: a write cut
short by power loss (``torn_checkpoint``) and a flipped bit
(``corrupt_byte``).  Tests apply them to a snapshot on disk between
``step()`` calls, drawing positions from a NumPy generator so that a
seed fixes every cut and every flipped bit.
"""

from pathlib import Path

import numpy as np

DAMAGE_KINDS = ("torn_checkpoint", "corrupt_byte")


def damage(path: Path, kind: str, rng: np.random.Generator) -> None:
    """Cut ``path`` to 20–80 % of its length, or flip one bit of it."""
    data = bytearray(path.read_bytes())
    if kind == "torn_checkpoint":
        del data[max(1, int(len(data) * rng.uniform(0.2, 0.8))):]
    elif kind == "corrupt_byte":
        data[int(rng.integers(len(data)))] ^= 1 << int(rng.integers(8))
    else:
        raise ValueError(f"unknown damage kind {kind!r}")
    path.write_bytes(bytes(data))


def draw_schedule(seed: int, shard_count: int, rate: float):
    """``{shard: [kinds]}``: each (shard, kind) is damaged with
    probability ``rate``; the same seed always draws the same schedule."""
    rng = np.random.default_rng(seed)
    schedule = {}
    for shard in range(shard_count):
        kinds = [kind for kind in DAMAGE_KINDS if rng.random() < rate]
        if kinds:
            schedule[shard] = kinds
    return schedule
