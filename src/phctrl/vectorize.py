"""Flat real-coordinate form of a system triple.

A skew-adjoint J is determined by its strict upper triangle (plus, over
the complexes, the imaginary parts of its diagonal), a self-adjoint H by
its upper triangle, and B is free, so the triple lives in a real vector
space of dimension n(n-1)/2 + n(n+1)/2 + nm = n^2 + nm over the reals.
Packing lists those coordinates in a fixed order, making the conversion
an exact bijection:

real field (length n^2 + nm):
  1. strict upper triangle of J, row-major
  2. upper triangle of H including the diagonal, row-major
  3. B, column-major

complex field (length 2 n^2 + 2 nm, coordinates still real):
  same traversal, but each off-diagonal entry contributes (re, im), the
  J diagonal contributes only its imaginary part (the real part is
  structurally zero), the H diagonal only its real part, and each B
  entry contributes (re, im).  These are exactly the real degrees of
  freedom of the triple, so no slot is redundant.

Packing and unpacking copy entries (negating or conjugating where the
symmetry demands), so the roundtrip is exact entry for entry.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from .core import Dims, PHSystem, PHTSystem, ScalarField
from .errors import DimensionMismatch, LengthMismatch, StructureViolation


def packed_length(dims: Dims, field: ScalarField) -> int:
    """Number of real coordinates of a packed system."""
    n, m = dims.n, dims.m
    if field is ScalarField.REAL:
        return n * n + n * m
    return 2 * n * n + 2 * n * m


@dataclass(frozen=True, eq=False)
class PackedVector:
    """Real coordinates of a system under the packing isomorphism."""

    coords: np.ndarray
    dims: Dims
    field: ScalarField

    def __post_init__(self) -> None:
        coords = np.asarray(self.coords, dtype=np.float64)
        if coords.ndim != 1:
            raise DimensionMismatch(f"coords must be 1-d, got {coords.ndim}-d")
        coords.setflags(write=False)
        object.__setattr__(self, "coords", coords)

    def __len__(self) -> int:
        return self.coords.shape[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PackedVector):
            return NotImplemented
        return (
            self.dims == other.dims
            and self.field == other.field
            and np.array_equal(self.coords, other.coords)
        )


@functools.lru_cache(maxsize=64)
def _upper_layout(n: int, field: ScalarField):
    """Indices of the upper triangle (diagonal included, row-major) and, for
    J and H, which float slots of each entry are coordinates.

    An entry has one float slot (re) over the reals and two (re, im) over
    the complexes.  J keeps its off-diagonal slots and the imaginary part
    of its diagonal, H keeps its off-diagonal slots and the real part of
    its diagonal.
    """
    iu = np.triu_indices(n)
    off = iu[0] != iu[1]
    every = np.ones_like(off)
    width = 1 if field is ScalarField.REAL else 2
    keep_j = np.column_stack([off, every])[:, :width]
    keep_h = np.column_stack([every, off])[:, :width]
    for a in (*iu, keep_j, keep_h):
        a.setflags(write=False)
    return iu, keep_j, keep_h


def _slots(a: np.ndarray) -> np.ndarray:
    """A 1-d array of real or complex entries as rows of float slots."""
    return a.view(np.float64).reshape(a.shape[0], -1)


def pack(sys: PHTSystem | PHSystem) -> PackedVector:
    """Coordinates of a system, in the fixed order documented above."""
    base = sys.base if isinstance(sys, PHSystem) else sys
    iu, keep_j, keep_h = _upper_layout(base.dims.n, base.field)
    coords = np.concatenate([
        _slots(base.J[iu])[keep_j],
        _slots(base.H[iu])[keep_h],
        base.B.T.ravel().view(np.float64),
    ])
    return PackedVector(coords, base.dims, base.field)


def unpack(v: PackedVector) -> PHTSystem:
    """Inverse of :func:`pack`; exact on every valid coordinate vector."""
    n, m = v.dims.n, v.dims.m
    expected = packed_length(v.dims, v.field)
    if len(v) != expected:
        raise LengthMismatch(expected, len(v))
    iu, keep_j, keep_h = _upper_layout(n, v.field)
    real = v.field is ScalarField.REAL

    def entries(slots: np.ndarray) -> np.ndarray:
        # re + 1j*im, not a float view, so that zero parts get the signs
        # of the entry-wise reference in tests/test_vectorize.py
        return slots[:, 0] if real else slots[:, 0] + 1j * slots[:, 1]

    def upper(coords: np.ndarray, keep: np.ndarray) -> np.ndarray:
        slots = np.zeros(keep.shape)
        slots[keep] = coords
        U = np.zeros((n, n), dtype=v.field.dtype)
        U[iu] = entries(slots)
        return U

    nj = np.count_nonzero(keep_j)
    j, h, b = np.split(v.coords, [nj, nj + np.count_nonzero(keep_h)])
    Ju = upper(j, keep_j)
    Hu = upper(h, keep_h)
    J = Ju - np.triu(Ju, k=1).conj().T
    H = Hu + np.triu(Hu, k=1).conj().T
    B = entries(b.reshape(n * m, -1)).reshape(m, n).T
    return PHTSystem(v.dims, v.field, J, H, B)


def packed_to_dict(v: PackedVector) -> dict:
    return {
        "n": v.dims.n,
        "m": v.dims.m,
        "field": v.field.value,
        "coords": [float(x) for x in v.coords],
    }


def packed_from_dict(data: dict) -> PackedVector:
    try:
        dims = Dims(int(data["n"]), int(data["m"]))
        field = ScalarField(data["field"])
        coords = np.asarray(data["coords"], dtype=np.float64)
    except (KeyError, TypeError, ValueError) as e:
        raise DimensionMismatch(f"malformed packed vector object: {e}")
    if not np.isfinite(coords).all():
        raise StructureViolation("packed coordinates are not all finite")
    return PackedVector(coords, dims, field)


def dumps_packed(v: PackedVector, indent: int | None = None) -> str:
    return json.dumps(packed_to_dict(v), indent=indent)


def loads_packed(text: str | bytes) -> PackedVector:
    return packed_from_dict(json.loads(text))
