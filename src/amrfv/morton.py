"""Morton (z-order) keys for linear quad/octrees, vectorised over int64 arrays.

An octant is anchored at its lower corner on the integer lattice
``[0, 2**b)**d`` of the reference cube, where ``b`` is the maximum
refinement level.  Anchors of level-``l`` octants are multiples of
``2**(b - l)`` on every axis.  Keys interleave coordinate bits with
x in the lowest position (bit ``d*i`` of the key is bit ``i`` of x),
so sorting by key traverses leaves along the z-order curve.  A forest
encodes its leaves' keys only when it is built from anchors alone:
``new_uniform`` enumerates its keys and decodes the anchors from them,
``Forest.refine`` gives a child its parent's key with the child id in the d
bits of its level's slot, ``Forest.coarsen`` gives a merged parent its child
0's key, and ``Forest.sibling_ids`` reads each leaf's child id and parent key
off its key.  Face neighbours come from arithmetic on anchors (the lattice
point one leaf size across a high face, or a fine sub-face's anchor); those
points are encoded and located among the sorted keys (``Forest.locate``).
"""
from __future__ import annotations

import numpy as np

__all__ = ["MAX_B", "DomainError", "encode_many", "decode_many"]

# 64-bit keys: d*b must stay below 63 bits so keys fit a signed int64.
MAX_B = {2: 31, 3: 21}


class DomainError(ValueError):
    """Lattice dimension other than 2 or 3, or a coordinate outside [0, 2**MAX_B[dim])."""


# decode via magic-bit compaction; encode via a table of the magic-bit
# spreading of every _BITS-bit value

def _spread2(v: np.ndarray) -> np.ndarray:
    # inserts one zero bit between the low 32 bits of v
    v = v & 0xFFFFFFFF
    v = (v | (v << 16)) & 0x0000FFFF0000FFFF
    v = (v | (v << 8)) & 0x00FF00FF00FF00FF
    v = (v | (v << 4)) & 0x0F0F0F0F0F0F0F0F
    v = (v | (v << 2)) & 0x3333333333333333
    v = (v | (v << 1)) & 0x5555555555555555
    return v


def _compact2(v: np.ndarray) -> np.ndarray:
    v = v & 0x5555555555555555
    v = (v ^ (v >> 1)) & 0x3333333333333333
    v = (v ^ (v >> 2)) & 0x0F0F0F0F0F0F0F0F
    v = (v ^ (v >> 4)) & 0x00FF00FF00FF00FF
    v = (v ^ (v >> 8)) & 0x0000FFFF0000FFFF
    v = (v ^ (v >> 16)) & 0x00000000FFFFFFFF
    return v


def _spread3(v: np.ndarray) -> np.ndarray:
    # inserts two zero bits between the low 21 bits of v
    v = v & 0x1FFFFF
    v = (v | (v << 32)) & 0x1F00000000FFFF
    v = (v | (v << 16)) & 0x1F0000FF0000FF
    v = (v | (v << 8)) & 0x100F00F00F00F00F
    v = (v | (v << 4)) & 0x10C30C30C30C30C3
    v = (v | (v << 2)) & 0x1249249249249249
    return v


def _compact3(v: np.ndarray) -> np.ndarray:
    v = v & 0x1249249249249249
    v = (v ^ (v >> 2)) & 0x10C30C30C30C30C3
    v = (v ^ (v >> 4)) & 0x100F00F00F00F00F
    v = (v ^ (v >> 8)) & 0x1F0000FF0000FF
    v = (v ^ (v >> 16)) & 0x1F00000000FFFF
    v = (v ^ (v >> 32)) & 0x1FFFFF
    return v


_BITS = 11
# row a of a table holds the key bits at axis a of every _BITS-bit value
_SPREAD = {
    2: _spread2(np.arange(1 << _BITS)) << np.arange(2)[:, None],
    3: _spread3(np.arange(1 << _BITS)) << np.arange(3)[:, None],
}


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


def decode_many(keys: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`encode_many`; returns an (N, d) int64 array."""
    keys = np.asarray(keys, dtype=np.int64)
    if dim == 2:
        return np.stack([_compact2(keys), _compact2(keys >> 1)], axis=-1)
    if dim == 3:
        return np.stack(
            [_compact3(keys), _compact3(keys >> 1), _compact3(keys >> 2)], axis=-1
        )
    raise DomainError(f"dimension must be 2 or 3, got {dim}")
