"""Random generation of structured systems.

Entries are Gaussian and symmetrized by the same projections the core
types enforce, so every draw has exactly the required structure and the
packed coordinates carry a jointly continuous density.

Reproducibility: draws are made from splittable streams.  A master
seed plus integer indices key numpy's SeedSequence, so element i of a
batch is bitwise reproducible regardless of batch size or scheduling.
The SeedSequence hash itself runs here, stacked over the rows of a
chunk (streams), and gives the PCG64 state SeedSequence would.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Iterable, Sequence, Union

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .core import (
    Dims,
    PHSystem,
    PHTSystem,
    ScalarField,
    pd_gate,
    skew_part,
    sym_part,
    validate_ph,
)
from .errors import DegenerateDraw, NotPositiveDefinite, PerturbationFailed

MAX_PD_RETRIES = 5


# numpy's SeedSequence, which is O'Neill's seed_seq_fe (PCG family) with a
# pool of four 32-bit words; all arithmetic is modulo 2^32.  A word is a
# Python int or a uint32 array: the masks keep ints in 32 bits (arrays wrap
# by themselves), and each product is masked before a subtraction because
# an int beyond 32 bits cannot meet a uint32 array.
_MASK32 = 0xFFFFFFFF
_POOL = 4


def _hash_constants(const: int, mult: int):
    """(before, after) hash constants of successive hash steps; each step
    multiplies the constant by mult."""
    while True:
        after = const * mult & _MASK32
        yield const, after
        const = after


def _hashmix(word, constants):
    before, after = constants
    word = (word ^ before) * after & _MASK32
    return word ^ word >> 16


def _mix(x, y):
    word = ((0xCA01F9DD * x & _MASK32) - (0x4973F715 * y & _MASK32)) & _MASK32
    return word ^ word >> 16


def _seed_states(entropy: list) -> np.ndarray:
    """SeedSequence(entropy).generate_state(4, np.uint64) for many rows at once.

    entropy lists the 32-bit words of the entropy in order: a Python int
    where the word is the same in every row, a uint32 array (one entry
    per row) where it varies.  The hash constants evolve the same way for
    every row of equal length, so the rows advance together through the
    same uint32 operations and each gets SeedSequence's bits.  Returns a
    (rows, 4) uint64 array; one row when every word is an int.
    """
    mixing = _hash_constants(0x43B0D7E5, 0x931E8875)
    pool = [_hashmix(entropy[i] if i < len(entropy) else 0, next(mixing))
            for i in range(_POOL)]
    for src in range(_POOL):  # every pool word into every other one
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], next(mixing)))
    for word in entropy[_POOL:]:  # words beyond the pool into each pool word
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], _hashmix(word, next(mixing)))
    words = [_hashmix(pool[i % _POOL], c)
             for i, c in zip(range(8), _hash_constants(0x8B51F9DD, 0x58F38DED))]
    words = np.array(words, dtype=np.uint32).reshape(8, -1).T
    # pairs of words, low word first, are the uint64 state words
    return np.ascontiguousarray(words, dtype="<u4").view("<u8").astype(np.uint64)


def _uint32_words(value: int, name: str) -> list:
    """A nonnegative integer as SeedSequence takes it: little-endian
    32-bit words, at least one."""
    value = operator.index(value)
    if value < 0:
        raise ValueError(f"{name} must be nonnegative, got {value}")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _key_words(seed: int, indices: Iterable[int]) -> list:
    """The entropy words of the key (seed, *indices)."""
    words = _uint32_words(seed, "seed")
    for i in indices:
        words += _uint32_words(i, "index")
    return words


class _HashedSeed(ISeedSequence):
    """The one request PCG64 makes of its seed sequence,
    generate_state(4, np.uint64), answered by a row of _seed_states."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("only generate_state(4, np.uint64) is precomputed")
        return self.state


def _generator(state: np.ndarray) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(_HashedSeed(state)))


def stream(seed: int, *indices: int) -> np.random.Generator:
    """Deterministic generator for a (seed, index...) tuple: bitwise
    Generator(PCG64(SeedSequence((seed, *indices)))), hashed as one row
    of streams."""
    return _generator(_seed_states(_key_words(seed, indices))[0])


def streams(seed: int, prefix: Sequence[int],
            indices: Iterable[int]) -> list[np.random.Generator]:
    """[stream(seed, *prefix, i) for i in indices], hashed in one stacked
    pass over the rows.

    Rows are grouped by the number of 32-bit words their index takes
    (one below 2^32), since the hash of each group is a fixed sequence of
    uint32 operations.
    """
    head = _key_words(seed, prefix)
    groups: dict[int, list] = {}
    for row, i in enumerate(indices):
        words = _uint32_words(i, "index")
        groups.setdefault(len(words), []).append((row, words))
    out: list = [None] * sum(map(len, groups.values()))
    for group in groups.values():
        rows, words = zip(*group)
        tails = [np.array(column, dtype=np.uint32) for column in zip(*words)]
        for row, state in zip(rows, _seed_states(head + tails)):
            out[row] = _generator(state)
    return out


def _finite_positive(x: float) -> bool:
    """0 < x < inf; false for NaN, which every plain comparison lets by."""
    return 0 < x < math.inf


@dataclass(frozen=True)
class Wishart:
    """H = A A*/p with A Gaussian n x p; almost surely positive definite
    and absolutely continuous on the cone for p >= n.  p = None means p = n."""

    p: int | None = None


@dataclass(frozen=True)
class ShiftedGram:
    """H = A A* + eps I with A Gaussian n x n; eps is a hard spectral floor."""

    eps: float = 1.0


HLaw = Union[Wishart, ShiftedGram]


@dataclass(frozen=True)
class SamplerSpec:
    """Parameters of the Gaussian system sampler."""

    dims: Dims
    field: ScalarField = ScalarField.REAL
    j_scale: float = 1.0
    h_law: HLaw = dataclass_field(default_factory=Wishart)
    b_scale: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not (_finite_positive(self.j_scale) and _finite_positive(self.b_scale)):
            raise ValueError("j_scale and b_scale must be positive and finite")
        if int(self.seed) != self.seed or self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")
        object.__setattr__(self, "seed", int(self.seed))
        law = self.h_law
        if isinstance(law, Wishart):
            if law.p is not None and law.p < self.dims.n:
                raise ValueError(f"Wishart p must be >= n = {self.dims.n}, got {law.p}")
        elif isinstance(law, ShiftedGram):
            if not _finite_positive(law.eps):
                raise ValueError(f"ShiftedGram eps must be positive and finite, got {law.eps}")
        else:
            raise ValueError(f"unknown H law: {law!r}")


@dataclass(frozen=True)
class PerturbationSpec:
    """Step size and direction law for structure-preserving perturbations.

    The direction is drawn from the same Gaussian family as the sampler
    (per-part scales shape its relative weights) and normalized to unit
    joint Frobenius norm before stepping.
    """

    epsilon: float
    j_scale: float = 1.0
    h_scale: float = 1.0
    b_scale: float = 1.0
    max_retries: int = 40

    def __post_init__(self) -> None:
        if not (self.epsilon == 0 or _finite_positive(self.epsilon)):
            raise ValueError(f"epsilon must be nonnegative and finite, got {self.epsilon}")
        if not all(map(_finite_positive, (self.j_scale, self.h_scale, self.b_scale))):
            raise ValueError("direction scales must be positive and finite")
        if self.max_retries < 0:
            raise ValueError("max_retries must be nonnegative")


@dataclass(frozen=True)
class PerturbResult:
    """Outcome of a perturbation: the system plus the step actually taken."""

    system: PHSystem
    eps_requested: float
    eps_used: float
    halvings: int


def _gauss(rng: np.random.Generator, shape, field: ScalarField) -> np.ndarray:
    if field is ScalarField.COMPLEX:
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return rng.standard_normal(shape)


def _gauss_rows(rngs: Sequence[np.random.Generator], shapes, field: ScalarField) -> list:
    """Row r of the k-th result is _gauss(rngs[r], shapes[k], field), the
    calls made in the order of shapes, from one standard_normal call per
    row: the draws of one row are a single run of its stream."""
    parts = 2 if field is ScalarField.COMPLEX else 1
    Z = np.empty((len(rngs), parts * sum(map(math.prod, shapes))))
    for rng, row in zip(rngs, Z):
        rng.standard_normal(out=row)
    out = []
    at = 0
    for shape in shapes:
        size = math.prod(shape)
        part = Z[:, at:at + size].reshape(len(Z), *shape)
        if parts == 2:
            part = part + 1j * Z[:, at + size:at + 2 * size].reshape(len(Z), *shape)
        out.append(part)
        at += parts * size
    return out


def sample_pht(spec: SamplerSpec, rng: np.random.Generator) -> PHTSystem:
    """Gaussian draw on the ambient space of structured triples.

    Draw order (part of the determinism contract): J source, H source, B.
    """
    n, m = spec.dims.n, spec.dims.m
    J = spec.j_scale * skew_part(_gauss(rng, (n, n), spec.field))
    H = sym_part(_gauss(rng, (n, n), spec.field))
    B = spec.b_scale * _gauss(rng, (n, m), spec.field)
    return PHTSystem(spec.dims, spec.field, J, H, B)


def _h_source_shape(law: HLaw, n: int) -> tuple:
    """Shape of the Gaussian A that H is formed from."""
    return (n, law.p if isinstance(law, Wishart) and law.p is not None else n)


def _h_from_source(law: HLaw, A: np.ndarray) -> np.ndarray:
    """H of the law from its source A, over a stack (..., n, p)."""
    AA = A @ A.conj().swapaxes(-1, -2)
    if isinstance(law, Wishart):
        return AA / A.shape[-1]
    return AA + law.eps * np.eye(A.shape[-2])


def _draw_h(spec: SamplerSpec, rng: np.random.Generator, n: int) -> np.ndarray:
    return _h_from_source(spec.h_law, _gauss(rng, _h_source_shape(spec.h_law, n), spec.field))


def _first_positive_definite(draw: Callable[[], PHTSystem]) -> PHSystem:
    """Certify fresh draws with validate_ph until one passes; give up with
    DegenerateDraw after MAX_PD_RETRIES attempts."""
    last: NotPositiveDefinite | None = None
    for _ in range(MAX_PD_RETRIES):
        try:
            return validate_ph(draw())
        except NotPositiveDefinite as e:
            last = e
    raise DegenerateDraw(MAX_PD_RETRIES, last.smallest_eigenvalue)


def sample_ph(spec: SamplerSpec, rng: np.random.Generator) -> PHSystem:
    """As :func:`sample_pht`, but H is drawn on the positive definite cone.

    The positive definiteness certificate can only fail on numerically
    degenerate draws; after MAX_PD_RETRIES fresh attempts the failure is
    reported as DegenerateDraw, which signals a sampler or parameter bug
    rather than bad luck.
    """
    n, m = spec.dims.n, spec.dims.m
    J = spec.j_scale * skew_part(_gauss(rng, (n, n), spec.field))

    def draw() -> PHTSystem:
        H = _draw_h(spec, rng, n)
        B = spec.b_scale * _gauss(rng, (n, m), spec.field)
        return PHTSystem(spec.dims, spec.field, J, H, B)

    return _first_positive_definite(draw)


def sample_ph_rows(spec: SamplerSpec, indices: range):
    """sample_ph(spec, stream(spec.seed, i)) for every trial i in indices,
    with the projections and the positive definiteness gate run on the
    stacked arrays.

    Each trial draws from its own stream in the documented order, so its
    J, H and B equal sample_ph's bit for bit.  The first attempt of every
    row is one standard_normal call (J source, H source, B) and its
    products are formed on the stack; only the rows the gate rejects
    redraw H and B, one at a time, up to MAX_PD_RETRIES attempts.
    Returns stacked J, H, B and a dict from row to the DegenerateDraw of
    each row that never passed (its arrays then hold the last attempt).
    """
    n, m = spec.dims.n, spec.dims.m
    rngs = streams(spec.seed, (), indices)
    J, A, B = _gauss_rows(rngs, ((n, n), _h_source_shape(spec.h_law, n), (n, m)), spec.field)
    J = spec.j_scale * skew_part(J)
    H = _h_from_source(spec.h_law, A)
    B = spec.b_scale * B
    smallest = np.empty(len(rngs))
    pending = np.arange(len(rngs))
    for attempt in range(MAX_PD_RETRIES):
        if attempt:  # a rejected row redraws from where its stream stands
            for k in pending:
                H[k] = _draw_h(spec, rngs[k], n)
                B[k] = spec.b_scale * _gauss(rngs[k], (n, m), spec.field)
        drawn = sym_part(H[pending])
        H[pending] = drawn
        smallest[pending], _, rejected = pd_gate(drawn)
        pending = pending[rejected]
        if not pending.size:
            break
    degenerate = {int(k): DegenerateDraw(MAX_PD_RETRIES, float(smallest[k])) for k in pending}
    return skew_part(J), H, B, degenerate


def sample_uncontrollable(dims: Dims, k: int, rng: np.random.Generator,
                          field: ScalarField = ScalarField.REAL,
                          j_scale: float = 1.0,
                          b_scale: float = 1.0) -> PHSystem:
    """Negative control: the trailing k states are unreachable.

    J and H are block diagonal (blocks of sizes n-k and k) and the last
    k rows of B vanish, so the reachable subspace stays inside the first
    n-k coordinates and the reachability rank is at most n - k.  H blocks
    follow the Wishart law with p equal to the block size.
    """
    n, m = dims.n, dims.m
    if not 1 <= k < n:
        raise ValueError(f"k must satisfy 1 <= k < n = {n}, got {k}")
    n1 = n - k
    dtype = field.dtype
    J = np.zeros((n, n), dtype=dtype)
    for lo, hi in ((0, n1), (n1, n)):
        size = hi - lo
        J[lo:hi, lo:hi] = j_scale * skew_part(_gauss(rng, (size, size), field))

    def draw() -> PHTSystem:
        H = np.zeros((n, n), dtype=dtype)
        for lo, hi in ((0, n1), (n1, n)):
            size = hi - lo
            A = _gauss(rng, (size, size), field)
            H[lo:hi, lo:hi] = (A @ A.conj().T) / size
        B = np.zeros((n, m), dtype=dtype)
        B[:n1, :] = b_scale * _gauss(rng, (n1, m), field)
        return PHTSystem(dims, field, J, H, B)

    return _first_positive_definite(draw)


@dataclass(frozen=True, eq=False)
class PerturbedRows:
    """Stacked outcome of perturb_rows: row r holds J, H, B, pd_margin,
    eps_used and halvings of perturb(base, spec, rngs[r]).  failed is the
    first row that never passed the positive definiteness gate (its
    arrays then hold the last attempt), or None."""

    J: np.ndarray
    H: np.ndarray
    B: np.ndarray
    pd_margin: np.ndarray
    eps_used: np.ndarray
    halvings: np.ndarray
    failed: int | None


def perturb_rows(base: PHSystem, spec: PerturbationSpec,
                 rngs: Sequence[np.random.Generator]) -> PerturbedRows:
    """Step base by epsilon along one random unit-Frobenius structured
    direction per stream in rngs, with the positive definiteness gate run
    on the stacked candidates.

    Each row draws DJ, DH and DB from its own stream in the documented
    order (J source, H source, B), in one standard_normal call, and takes
    their norms one row at a time, so every row equals a lone
    perturbation bit for bit.  A row the gate rejects halves its step
    (same direction) and is tried again, up to spec.max_retries halvings;
    the other rows keep theirs.  epsilon = 0 gives the base in every row
    without consuming randomness.
    """
    n, m = base.dims.n, base.dims.m
    field = base.field
    rows = len(rngs)
    eps_used = np.full(rows, float(spec.epsilon))
    halvings = np.zeros(rows, dtype=int)
    if spec.epsilon == 0.0:
        return PerturbedRows(*(np.broadcast_to(a, (rows,) + a.shape)
                               for a in (base.J, base.H, base.B)),
                             np.full(rows, base.pd_margin), eps_used, halvings, None)

    DJ, DH, DB = _gauss_rows(rngs, ((n, n), (n, n), (n, m)), field)
    DJ = spec.j_scale * skew_part(DJ)
    DH = spec.h_scale * sym_part(DH)
    DB = spec.b_scale * DB
    # one norm per matrix: a stacked norm is not bitwise equal to these
    norms = np.array([math.sqrt(np.linalg.norm(DJ[r]) ** 2 + np.linalg.norm(DH[r]) ** 2
                                + np.linalg.norm(DB[r]) ** 2) for r in range(rows)])
    norms[norms == 0.0] = 1.0
    DJ /= norms[:, None, None]
    DH /= norms[:, None, None]
    DB /= norms[:, None, None]

    J = np.empty_like(DJ)
    H = np.empty_like(DH)
    B = np.empty_like(DB)
    pd_margin = np.empty(rows)
    pending = np.arange(rows)
    for attempt in range(spec.max_retries + 1):
        if attempt:
            eps_used[pending] /= 2.0
            halvings[pending] = attempt
        eps = eps_used[pending, None, None]
        J[pending] = skew_part(base.J + eps * DJ[pending])
        H[pending] = sym_part(base.H + eps * DH[pending])
        B[pending] = base.B + eps * DB[pending]
        pd_margin[pending], _, rejected = pd_gate(H[pending])
        pending = pending[rejected]
        if not pending.size:
            break
    failed = int(pending[0]) if pending.size else None
    return PerturbedRows(J, H, B, pd_margin, eps_used, halvings, failed)


def perturb(sys: PHSystem, spec: PerturbationSpec,
            rng: np.random.Generator) -> PerturbResult:
    """Step by epsilon along a random unit-Frobenius structured direction:
    perturb_rows on the single stream rng.

    If the step leaves the positive definite cone, it is halved (same
    direction) and tried again; after spec.max_retries halvings that all
    leave the cone, PerturbationFailed is raised.  The cone is open, so
    some halving passes for a base certified by validate_ph, but it may
    lie beyond max_retries.  epsilon = 0 returns the base system (an
    equal copy) without consuming randomness.
    """
    rows = perturb_rows(sys, spec, [rng])
    if rows.failed is not None:
        raise PerturbationFailed(spec.epsilon, spec.max_retries)
    system = PHSystem(PHTSystem(sys.dims, sys.field, rows.J[0], rows.H[0], rows.B[0]),
                      float(rows.pd_margin[0]))
    return PerturbResult(system=system, eps_requested=spec.epsilon,
                         eps_used=float(rows.eps_used[0]), halvings=int(rows.halvings[0]))
