"""Morton (z-order) keys for linear quad/octrees, vectorised over int64 arrays.

An octant is anchored at its lower corner on the integer lattice
``[0, 2**b)**d`` of the reference cube, where ``b`` is the maximum
refinement level.  Anchors of level-``l`` octants are multiples of
``2**(b - l)`` on every axis.  Keys interleave coordinate bits with
x in the lowest position (bit ``d*i`` of the key is bit ``i`` of x),
so sorting by key traverses leaves along the z-order curve.  ``encode_many``
spreads 11 bits of a coordinate per lookup in a table built from that rule;
nothing decodes a key, as a forest keeps each leaf's anchor beside it.  Child
c of an octant sits at bit a of c on axis a (``CHILDREN``): ``new_uniform``
builds its anchors level by level from it, ``Forest.refine`` adds it to the
parent's anchor and puts c in the d bits of the level's key slot, and the
sub-faces and VTK corners read it.  ``Forest.coarsen`` gives a merged parent
its child 0's anchor and key, and ``Forest.sibling_ids`` reads each leaf's
child id and parent key off its key.  Face neighbours come from arithmetic on
anchors (the lattice point one leaf size across a high face, or a fine
sub-face's anchor); those points are encoded and located among the sorted
keys (``Forest.locate``).
"""
from __future__ import annotations

import numpy as np

__all__ = ["MAX_B", "DomainError", "CHILDREN", "encode_many"]

# 64-bit keys: d*b must stay below 63 bits so keys fit a signed int64.
MAX_B = {2: 31, 3: 21}


class DomainError(ValueError):
    """Lattice dimension other than 2 or 3, or a coordinate outside [0, 2**MAX_B[dim])."""


_BITS = 11
# row a of a table holds the key bits at axis a of every _BITS-bit value v: bit i of v goes to bit d*i + a
_SPREAD = {d: sum((np.arange(1 << _BITS) >> i & 1) << d * i for i in range(_BITS)) << np.arange(d)[:, None]
           for d in (2, 3)}
# row c holds the anchor offset of child c in child sizes: bit a of c on axis a
CHILDREN = {d: (np.arange(1 << d)[:, None] >> np.arange(d)) & 1 for d in (2, 3)}


def encode_many(coords: np.ndarray) -> np.ndarray:
    """Morton keys for an (N, d) int array of lattice coordinates in [0, 2**MAX_B[d])."""
    coords = np.asarray(coords, dtype=np.int64)
    dim = coords.shape[-1]
    if dim not in MAX_B:
        raise DomainError(f"dimension must be 2 or 3, got {dim}")
    # a negative coordinate views as an unsigned one of 2**63 or more
    top = int(coords.view(np.uint64).max(initial=0))
    if top >> MAX_B[dim]:
        rows = coords.reshape(-1, dim)
        bad = np.flatnonzero((rows.view(np.uint64) >> MAX_B[dim]).any(axis=1))[0]
        raise DomainError(
            f"row {bad} of the lattice coordinates, {tuple(rows[bad].tolist())}, "
            f"lies outside [0, 2**{MAX_B[dim]})"
        )
    # each _BITS-bit chunk of the coordinates fills d * _BITS bits of the key
    for low in range(0, top.bit_length() or 1, _BITS):
        chunk = coords >> low & ((1 << _BITS) - 1) if top >> _BITS else coords
        part = _SPREAD[dim][0].take(chunk[..., 0])
        for a in range(1, dim):
            part |= _SPREAD[dim][a].take(chunk[..., a])
        keys = keys | part << dim * low if low else part
    return keys

