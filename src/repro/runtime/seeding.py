"""Deterministic per-task seed derivation for parallel sweeps.

Every Monte Carlo draw of a sweep gets its own independent RNG stream,
derived from ``(master_seed, sweep_name, cell_index, draw_index)`` through
``numpy.random.SeedSequence``'s spawn-key mechanism.  Because the stream
depends only on those four coordinates — never on which worker ran the
task, in what order, or how trials were chunked — a sweep's results are
bit-identical across serial runs, any worker count, and checkpoint/resume.

The spawn key encodes the sweep name as a length-prefixed byte tuple, so
distinct ``(sweep, cell, draw)`` triples always map to distinct keys (no
hashing, no collision budget): the length prefix makes the encoding
uniquely decodable, which is what the injectivity property test in
``tests/properties/test_property_runtime.py`` pins down.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.utils.validation import require


def _encode_name(name: str) -> Tuple[int, ...]:
    """Length-prefixed byte encoding of the sweep name (uniquely decodable)."""
    data = name.encode("utf-8")
    return (len(data), *data)


def spawn_key(sweep: str, cell_index: int, draw_index: int) -> Tuple[int, ...]:
    """The ``SeedSequence`` spawn key of one (sweep, cell, draw) coordinate.

    Injective: two distinct coordinate triples never share a key, because
    the name is length-prefixed and the two indices sit at fixed positions
    after it.
    """
    require(isinstance(sweep, str) and sweep != "", "sweep name must be a non-empty str")
    require(int(cell_index) >= 0, "cell_index must be non-negative")
    require(int(draw_index) >= 0, "draw_index must be non-negative")
    return (*_encode_name(sweep), int(cell_index), int(draw_index))


def seed_sequence(
    master_seed: int, sweep: str, cell_index: int, draw_index: int
) -> np.random.SeedSequence:
    """The independent ``SeedSequence`` of one task coordinate."""
    return np.random.SeedSequence(
        entropy=int(master_seed),
        spawn_key=spawn_key(sweep, cell_index, draw_index),
    )
