"""Morton (z-order) keys for linear quad/octrees, vectorised over int64 arrays.

An octant is anchored at its lower corner on the integer lattice
``[0, 2**b)**d`` of the reference cube, where ``b`` is the maximum
refinement level.  Anchors of level-``l`` octants are multiples of
``2**(b - l)`` on every axis.  Keys interleave coordinate bits with
x in the lowest position (bit ``d*i`` of the key is bit ``i`` of x),
so sorting by key traverses leaves along the z-order curve.  The octant
arithmetic built on the keys (children, parents, face neighbours) lives in
``Forest.refine``, ``Forest.coarsen`` and ``Forest.face_list``.
"""
from __future__ import annotations

import numpy as np

__all__ = ["MAX_B", "DomainError", "encode_many", "decode_many"]

# 64-bit keys: d*b must stay below 63 bits so keys fit a signed int64.
MAX_B = {2: 31, 3: 21}


class DomainError(ValueError):
    """Lattice dimension other than 2 or 3."""


# encode/decode via magic-bit spreading

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


def encode_many(coords: np.ndarray) -> np.ndarray:
    """Morton keys for an (N, d) int array of lattice coordinates."""
    coords = np.asarray(coords, dtype=np.int64)
    dim = coords.shape[-1]
    if dim == 2:
        return _spread2(coords[..., 0]) | (_spread2(coords[..., 1]) << 1)
    if dim == 3:
        return (
            _spread3(coords[..., 0])
            | (_spread3(coords[..., 1]) << 1)
            | (_spread3(coords[..., 2]) << 2)
        )
    raise DomainError(f"dimension must be 2 or 3, got {dim}")


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
