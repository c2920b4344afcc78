"""Structured system types for lossless port-Hamiltonian models.

A system is a matrix triple (J, H, B): J skew-adjoint (the lossless
interconnection), H self-adjoint (the energy Hessian), B the input map.
When H is positive definite the triple drives the state equation
dx/dt = J H x + B u.

Symmetry is enforced by projection at construction time, J -> (J - J*)/2
and H -> (H + H*)/2, so the defining identities hold *exactly* in
floating point: subtraction and conjugation are exact entrywise, and the
projection is idempotent on already-structured matrices.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite, StructureViolation

DEFAULT_SYMMETRY_TOL = 1e-9
# no entry of a matrix within this Frobenius norm overflows M +- M*
_HALF_MAX = float(np.finfo(np.float64).max) / 2


class ScalarField(enum.Enum):
    """Scalar field of a system; every matrix of one system shares it."""

    REAL = "real"
    COMPLEX = "complex"

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(np.complex128 if self is ScalarField.COMPLEX else np.float64)


@dataclass(frozen=True)
class Dims:
    """State dimension n and input dimension m, both at least 1."""

    n: int
    m: int

    def __post_init__(self) -> None:
        for name in ("n", "m"):
            value = getattr(self, name)
            try:
                as_int = int(value)
            except (TypeError, ValueError):
                raise DimensionMismatch(f"{name} must be an integer, got {value!r}")
            if as_int != value:
                raise DimensionMismatch(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, as_int)
        if self.n < 1 or self.m < 1:
            raise DimensionMismatch(
                f"dimensions must be positive, got n={self.n}, m={self.m}"
            )


def _as_field_matrix(a: np.ndarray, field: ScalarField, name: str) -> np.ndarray:
    """Cast a matrix to the field dtype; reject genuinely complex data in a
    real-field system."""
    a = np.asarray(a)
    if field is ScalarField.REAL and np.iscomplexobj(a):
        if np.any(a.imag != 0):
            raise StructureViolation(f"{name} has complex entries in a real-field system")
        a = a.real
    return np.array(a, dtype=field.dtype)


def skew_part(M: np.ndarray) -> np.ndarray:
    """Projection (M - M*)/2 onto the skew-adjoint matrices, over a stack
    (..., n, n)."""
    return (M - M.swapaxes(-1, -2).conj()) / 2.0


def sym_part(M: np.ndarray) -> np.ndarray:
    """Projection (M + M*)/2 onto the self-adjoint matrices, over a stack
    (..., n, n)."""
    return (M + M.swapaxes(-1, -2).conj()) / 2.0


@dataclass(frozen=True, eq=False)
class PHTSystem:
    """Triple (J, H, B) with J skew-adjoint and H self-adjoint.

    Construction projects J and H onto their symmetry classes and freezes
    the arrays; instances are immutable and safe to share across threads.
    """

    dims: Dims
    field: ScalarField
    J: np.ndarray
    H: np.ndarray
    B: np.ndarray

    def __post_init__(self) -> None:
        n, m = self.dims.n, self.dims.m
        J = _as_field_matrix(self.J, self.field, "J")
        H = _as_field_matrix(self.H, self.field, "H")
        B = _as_field_matrix(self.B, self.field, "B")
        if J.shape != (n, n):
            raise DimensionMismatch(f"J must be {n}x{n}, got {J.shape}")
        if H.shape != (n, n):
            raise DimensionMismatch(f"H must be {n}x{n}, got {H.shape}")
        if B.shape != (n, m):
            raise DimensionMismatch(f"B must be {n}x{m}, got {B.shape}")
        J = skew_part(J)
        H = sym_part(H)
        for name, array in (("J", J), ("H", H), ("B", B)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PHTSystem):
            return NotImplemented
        return (
            self.dims == other.dims
            and self.field == other.field
            and np.array_equal(self.J, other.J)
            and np.array_equal(self.H, other.H)
            and np.array_equal(self.B, other.B)
        )


@dataclass(frozen=True, eq=False)
class PHSystem:
    """A PHTSystem whose H is positive definite.

    pd_margin is the smallest eigenvalue of H, certified at construction
    by :func:`validate_ph` and reused by the perturbation machinery.
    """

    base: PHTSystem
    pd_margin: float

    @property
    def dims(self) -> Dims:
        return self.base.dims

    @property
    def field(self) -> ScalarField:
        return self.base.field

    @property
    def J(self) -> np.ndarray:
        return self.base.J

    @property
    def H(self) -> np.ndarray:
        return self.base.H

    @property
    def B(self) -> np.ndarray:
        return self.base.B

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PHSystem):
            return NotImplemented
        return self.base == other.base and self.pd_margin == other.pd_margin


AnySystem = Union[PHTSystem, PHSystem]


def _coerce_triple(J, H, B, field: ScalarField | None):
    """Raw matrices to arrays, their field and dims; rejects bad shapes and
    non-finite entries, which no symmetry gate would catch (every
    comparison with NaN is false)."""
    J = np.asarray(J)
    H = np.asarray(H)
    B = np.asarray(B)
    if field is None:
        complexish = any(np.iscomplexobj(a) for a in (J, H, B))
        field = ScalarField.COMPLEX if complexish else ScalarField.REAL
    if J.ndim != 2 or J.shape[0] != J.shape[1]:
        raise DimensionMismatch(f"J must be square, got shape {J.shape}")
    n = J.shape[0]
    if H.shape != (n, n):
        raise DimensionMismatch(f"H must be {n}x{n}, got {H.shape}")
    if B.ndim != 2 or B.shape[0] != n:
        raise DimensionMismatch(f"B must have {n} rows, got shape {B.shape}")
    for name, a in (("J", J), ("H", H), ("B", B)):
        if not np.isfinite(a).all():
            raise StructureViolation(f"{name} has entries that are not finite")
    return J, H, B, field, Dims(n, B.shape[1])


def _frobenius(M: np.ndarray) -> float:
    """||M||_F of M scaled by a power of two near its largest entry, scaled
    back: the scaling is exact, so this is np.linalg.norm(M) bit for bit
    where that is finite, and finite where squaring the entries overflows."""
    scale = math.ldexp(1.0, -math.frexp(float(np.abs(M).max(initial=0.0)))[1])
    return float(np.linalg.norm(M * scale)) / scale


def validate_pht(J, H, B, tol: float = DEFAULT_SYMMETRY_TOL,
                 field: ScalarField | None = None) -> PHTSystem:
    """Gate raw matrices on their symmetry residuals, then project.

    Accepts the triple when ||J + J*||_F <= tol (1 + ||J||_F) and
    ||H - H*||_F <= tol (1 + ||H||_F).  The returned system stores the
    projections (J - J*)/2 and (H + H*)/2, which satisfy the structural
    identities exactly; on already-structured input the projection is the
    identity, entry for entry.

    Raises StructureViolation when a residual exceeds the gate or when
    the Frobenius norm of J, H or B exceeds half the double range (the
    projection M +- M* would overflow to Inf), before any gate or
    projection is taken; DimensionMismatch for inconsistent shapes.
    """
    if not tol >= 0:  # also NaN, which would pass every residual
        raise ValueError(f"tol must be nonnegative, got {tol}")
    J, H, B, field, dims = _coerce_triple(J, H, B, field)
    Jf = _as_field_matrix(J, field, "J")
    Hf = _as_field_matrix(H, field, "H")
    norms = {}
    for name, M in (("J", Jf), ("H", Hf), ("B", B)):
        norms[name] = _frobenius(M)
        if not norms[name] <= _HALF_MAX:
            raise StructureViolation(
                f"{name} has Frobenius norm {norms[name]:.6e} beyond half the double range")
    skew_residual = _frobenius(Jf + Jf.conj().T)
    skew_gate = tol * (1.0 + norms["J"])
    if skew_residual > skew_gate:
        raise StructureViolation(
            f"J is not skew-adjoint: residual {skew_residual:.6e} "
            f"exceeds {skew_gate:.6e}",
            residual=skew_residual,
            threshold=skew_gate,
        )
    sym_residual = _frobenius(Hf - Hf.conj().T)
    sym_gate = tol * (1.0 + norms["H"])
    if sym_residual > sym_gate:
        raise StructureViolation(
            f"H is not self-adjoint: residual {sym_residual:.6e} "
            f"exceeds {sym_gate:.6e}",
            residual=sym_residual,
            threshold=sym_gate,
        )
    return PHTSystem(dims, field, J, H, B)


def default_pd_delta(H: np.ndarray):
    """Positive definiteness margin used when none is given:
    1e-12 * max(1, ||H||_2), a float for one matrix and an array of them
    for a stack (..., n, n)."""
    norm = np.linalg.svd(H, compute_uv=False)[..., 0]  # = norm(H, 2), bit for bit
    delta = 1e-12 * np.maximum(1.0, norm)
    return float(delta) if delta.ndim == 0 else delta


def pd_gate(H: np.ndarray, delta: float | None = None):
    """The positive definiteness rule over a stack (..., n, n) of
    self-adjoint H: the smallest eigenvalue of each, the margin it must
    reach (default_pd_delta when delta is None) and whether it falls
    short of it.  A NaN eigenvalue or margin (H with non-finite entries)
    falls short."""
    if delta is None:
        delta = default_pd_delta(H)
    elif not delta > 0:  # also NaN, which would pass every eigenvalue
        raise ValueError(f"delta must be positive, got {delta}")
    smallest = np.linalg.eigvalsh(H)[..., 0]
    return smallest, delta, ~(smallest >= delta)


def validate_ph(sys: PHTSystem, delta: float | None = None) -> PHSystem:
    """Certify that H is positive definite with margin at least delta.

    Succeeds iff the smallest eigenvalue of H is >= delta and records it
    as pd_margin; raises NotPositiveDefinite (carrying the offending
    eigenvalue) otherwise.
    """
    smallest, delta, rejected = pd_gate(sys.H, delta)
    if rejected:
        raise NotPositiveDefinite(float(smallest), delta)
    return PHSystem(base=sys, pd_margin=float(smallest))


def system_matrix(sys: AnySystem) -> np.ndarray:
    """State matrix J @ H of dx/dt = J H x + B u."""
    return sys.J @ sys.H


# ---------------------------------------------------------------------------
# JSON interchange: {field, n, m, J, H, B} with row-major nested arrays and
# complex entries encoded as [re, im] pairs.  This is the format every CLI
# subcommand reads and writes.
# ---------------------------------------------------------------------------


def _encode_matrix(M: np.ndarray, field: ScalarField) -> list:
    if field is ScalarField.REAL:
        return [[float(x) for x in row] for row in M]
    return [[[float(x.real), float(x.imag)] for x in row] for row in M]


def _decode_matrix(rows, field: ScalarField, name: str) -> np.ndarray:
    try:
        arr = np.array(rows, dtype=np.float64)
    except (TypeError, ValueError) as e:
        raise DimensionMismatch(f"{name} is not a rectangular numeric array: {e}")
    if field is ScalarField.REAL:
        if arr.ndim != 2:
            raise DimensionMismatch(f"{name} must be a 2-d array, got {arr.ndim}-d")
        return arr
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise DimensionMismatch(
            f"{name} must be a 2-d array of [re, im] pairs, got shape {arr.shape}"
        )
    return arr[..., 0] + 1j * arr[..., 1]


def system_to_dict(sys: AnySystem) -> dict:
    """Encode a system as a JSON-ready dictionary."""
    return {
        "field": sys.field.value,
        "n": sys.dims.n,
        "m": sys.dims.m,
        "J": _encode_matrix(sys.J, sys.field),
        "H": _encode_matrix(sys.H, sys.field),
        "B": _encode_matrix(sys.B, sys.field),
    }


def system_from_dict(data: dict, tol: float = DEFAULT_SYMMETRY_TOL) -> PHTSystem:
    """Decode and validate a system from its dictionary form."""
    try:
        field = ScalarField(data["field"])
        n, m = int(data["n"]), int(data["m"])
        raw = {name: data[name] for name in ("J", "H", "B")}
    except (KeyError, ValueError) as e:
        raise DimensionMismatch(f"malformed system object: {e}")
    J = _decode_matrix(raw["J"], field, "J")
    H = _decode_matrix(raw["H"], field, "H")
    B = _decode_matrix(raw["B"], field, "B")
    if J.shape != (n, n) or H.shape != (n, n) or B.shape != (n, m):
        raise DimensionMismatch(
            f"declared dims n={n}, m={m} do not match J{J.shape}, "
            f"H{H.shape}, B{B.shape}"
        )
    return validate_pht(J, H, B, tol=tol, field=field)


def dumps_system(sys: AnySystem, indent: int | None = None) -> str:
    return json.dumps(system_to_dict(sys), indent=indent)


def loads_system(text: str | bytes, tol: float = DEFAULT_SYMMETRY_TOL) -> PHTSystem:
    return system_from_dict(json.loads(text), tol=tol)
