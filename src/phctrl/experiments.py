"""Desk-scale studies of controllability genericity.

Four instruments:

* a Monte Carlo harness estimating the fraction of controllable systems
  under an absolutely continuous sampling law (expected: exactly 1);
* a perturbation probe showing that arbitrarily small structured steps
  take an uncontrollable system back to controllability;
* a grid + refinement estimator for the distance to uncontrollability
  min over complex lam of sigma_min([JH - lam I, B]), reported as an
  upper bound of the true distance;
* a dense open union of intervals around the positive rationals with
  summable lengths (partial measure increasing to pi^2/3), the classic
  example separating "nowhere dense complement" from "complement inside
  a proper algebraic variety".

Reports embed their configuration and master seed; rerunning from that
configuration reproduces a report byte for byte except for wall_time,
which is the single nondeterministic field.  Every report is written
through report_json, and every report table through csv_table.  The
Monte Carlo harness and the perturbation probe evaluate their trials in
chunks of CHUNK on stacked arrays; each trial still draws from its own
stream, so no byte depends on the chunk size.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, astuple, dataclass, fields
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .core import AnySystem, PHSystem, PHTSystem, system_matrix
from .ctrb import (
    DEFAULT_PBH_TOL,
    kalman_matrix,
    krylov_blocks,
    pbh_check,
    pencil_smin,
    rank_svd,
    resolve_rel_tol,
    singular_values,
    threshold_rank,
)
from .errors import (
    BaseNotUncontrollable,
    ExperimentError,
    PerturbationFailed,
    PhctrlError,
    SvdFailure,
)
from .sample import (
    PerturbationSpec,
    SamplerSpec,
    Wishart,
    perturb_rows,
    sample_ph_rows,
    streams,
)

PI_SQUARED_THIRD = math.pi ** 2 / 3.0
# Monte Carlo and probe trials evaluated per stacked chunk; 64 to 512
# measure alike.
CHUNK = 128


def report_json(d: dict) -> str:
    """The report format: JSON with sorted keys and indent 2."""
    return json.dumps(d, sort_keys=True, indent=2)


def stable_json(report_dict: dict) -> str:
    """report_json with wall_time, the one volatile field, zeroed out.

    Two runs of the same seeded experiment produce identical strings.
    """
    d = dict(report_dict)
    if "wall_time" in d:
        d["wall_time"] = 0.0
    return report_json(d)


def csv_table(columns: Iterable[str], rows: Iterable[Iterable]) -> str:
    """The report CSV: a header line, then one line per row, each value
    written with str (for a float, str is repr, so it reads back exact)."""
    lines = [",".join(columns)]
    lines.extend(",".join(map(str, row)) for row in rows)
    return "\n".join(lines) + "\n"


class Report:
    """A dataclass report: to_dict is its fields, recursively, and to_json
    writes them in the report format."""

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return report_json(self.to_dict())


# ---------------------------------------------------------------------------
# Monte Carlo controllability fraction
# ---------------------------------------------------------------------------


@dataclass
class ExperimentReport(Report):
    """Per-run statistics of a Monte Carlo controllability study."""

    config: dict
    trials: int
    controllable_count: int
    fraction: float
    min_sigma_n: float
    sigma_n_stats: dict
    pbh_agreements: int | None
    seeds: dict
    wall_time: float


def _spec_config(spec: SamplerSpec) -> dict:
    law = spec.h_law
    law_dict = (
        {"name": "wishart", "p": law.p}
        if isinstance(law, Wishart)
        else {"name": "shifted_gram", "eps": law.eps}
    )
    return {
        "n": spec.dims.n,
        "m": spec.dims.m,
        "field": spec.field.value,
        "j_scale": spec.j_scale,
        "h_law": law_dict,
        "b_scale": spec.b_scale,
        "seed": spec.seed,
    }


def _chunk_singular_values(K: np.ndarray, failures: dict):
    """Singular values of a chunk's stacked reachability matrices, and the
    chunk's first failing row (len(K) when no row fails).

    failures maps rows to the errors their draw raised.  When the stacked
    SVD fails, the first row whose SVD fails alone joins them, unless its
    draw failed already: one trial at a time, a trial stops at its draw.
    So the first failing trial wins, a draw failure before an SVD one.
    """
    sv = None
    try:
        sv = singular_values(K)
    except SvdFailure as e:
        for k in range(len(K)):
            try:
                singular_values(K[k])
            except SvdFailure as row_error:
                failures.setdefault(k, row_error)
                break
        else:  # no row fails alone: charge the chunk's first trial
            failures.setdefault(0, e)
    return sv, min(failures, default=len(K))


def _trial_rows(spec: SamplerSpec, trials: range, rel_tol: float,
                pbh_tol: float, cross_check: bool):
    """Trials of run_genericity_trial on stacked arrays: sample_ph_rows,
    J @ H, the Krylov recurrence and one stacked SVD.

    Returns sigma_n and the controllable flag of every trial, and the
    number of PBH agreements (0 without cross_check).  A failing trial
    raises ExperimentError with the index the per-trial composition
    rank_svd(kalman_matrix(sample_ph(spec, stream(seed, i)))) would
    give (_chunk_singular_values).
    """
    n = spec.dims.n
    J, H, B, failures = sample_ph_rows(spec, trials)
    sv, first_failure = _chunk_singular_values(krylov_blocks(J @ H, B), failures)
    pbh = []
    for k in range(first_failure if cross_check else 0):
        try:
            pbh.append(pbh_check(PHTSystem(spec.dims, spec.field, J[k], H[k], B[k]), pbh_tol))
        except PhctrlError as e:
            raise ExperimentError(trials[k], e) from e
    if failures:
        cause = failures[first_failure]
        raise ExperimentError(trials[first_failure], cause) from cause
    controllable = threshold_rank(sv, rel_tol)[0] == n
    return sv[:, n - 1], controllable, int(np.count_nonzero(controllable[:len(pbh)] == pbh))


def run_genericity_trial(spec: SamplerSpec, trials: int, *,
                         cross_check: bool = False,
                         rank_rel_tol: float | None = None,
                         pbh_tol: float = DEFAULT_PBH_TOL,
                         config_echo: dict | None = None) -> ExperimentReport:
    """Sample systems, test controllability, report the fraction.

    Trial i draws from stream(seed, i), so results do not depend on how
    a batch is split: trials are evaluated in chunks of CHUNK on stacked
    arrays, and no byte of the report depends on the chunk size.  With
    cross_check the eigenvector test runs next to the rank test and
    agreements are counted.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rel_tol = resolve_rel_tol(spec.dims, rank_rel_tol)
    t0 = time.perf_counter()
    controllable = 0
    agreements = 0
    sigma_ns: list[float] = []
    for start in range(0, trials, CHUNK):
        sigma_n, ok, agreed = _trial_rows(spec, range(start, min(start + CHUNK, trials)),
                                          rel_tol, pbh_tol, cross_check)
        sigma_ns.extend(sigma_n.tolist())
        controllable += int(np.count_nonzero(ok))
        agreements += agreed
    sigma_sorted = sorted(sigma_ns)
    stats = {
        "min": sigma_sorted[0],
        "median": sigma_sorted[len(sigma_sorted) // 2],
        "max": sigma_sorted[-1],
    }
    config = config_echo if config_echo is not None else {
        "subcommand": "mc-genericity",
        **_spec_config(spec),
        "trials": trials,
        "cross_check": cross_check,
    }
    return ExperimentReport(
        config=config,
        trials=trials,
        controllable_count=controllable,
        fraction=controllable / trials,
        min_sigma_n=stats["min"],
        sigma_n_stats=stats,
        pbh_agreements=agreements if cross_check else None,
        seeds={"master": spec.seed},
        wall_time=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# Perturbation probe on an uncontrollable base
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProbeRow:
    """One step-size row of the perturbation probe table."""

    eps: float
    trials: int
    controllable_count: int
    fraction: float
    mean_rank: float
    mean_sigma_n: float


@dataclass
class ProbeReport(Report):
    """Perturbation probe results: one row per step size."""

    config: dict
    base_rank: int
    rows: list[ProbeRow]
    seeds: dict
    wall_time: float

    def to_csv(self) -> str:
        return csv_table([f.name for f in fields(ProbeRow)], map(astuple, self.rows))


def run_nowhere_density_probe(base: PHSystem, eps_grid: Sequence[float],
                              trials_per_eps: int, *, seed: int = 0,
                              rank_rel_tol: float | None = None,
                              max_retries: int = 60,
                              config_echo: dict | None = None) -> ProbeReport:
    """Perturb an uncontrollable base and record how often it escapes.

    Every eps > 0 is expected to give fraction 1.0: the uncontrollable
    set is thin enough that any structured random step leaves it.  An
    eps = 0 row evaluates the base itself (fraction 0.0, no randomness
    consumed).  Raises BaseNotUncontrollable when the base passes the
    rank test.

    Trial t of row j steps along a direction drawn from stream(seed, j, t).
    Each row is evaluated in chunks of CHUNK trials on stacked arrays
    (perturb_rows, J @ H, the Krylov recurrence, one SVD), and no byte of
    the report depends on the chunk size.  A failing trial raises
    ExperimentError naming j, eps and the trial the per-trial composition
    rank_svd(kalman_matrix(perturb(base, spec, stream(seed, j, t)))) would
    fail first.
    """
    if trials_per_eps < 1:
        raise ValueError(f"trials_per_eps must be >= 1, got {trials_per_eps}")
    if any(eps < 0 for eps in eps_grid):
        raise ValueError("eps_grid entries must be nonnegative")
    t0 = time.perf_counter()
    n = base.dims.n
    base_report = rank_svd(kalman_matrix(base), rank_rel_tol)
    if base_report.controllable:
        raise BaseNotUncontrollable(base_report.rank, n)

    rel_tol = resolve_rel_tol(base.dims, rank_rel_tol)
    rows: list[ProbeRow] = []
    for j, eps in enumerate(eps_grid):
        if eps == 0.0:
            rows.append(ProbeRow(
                eps=0.0,
                trials=trials_per_eps,
                controllable_count=0,
                fraction=0.0,
                mean_rank=float(base_report.rank),
                mean_sigma_n=base_report.singular_values[n - 1],
            ))
            continue
        pspec = PerturbationSpec(epsilon=eps, max_retries=max_retries)
        count = 0
        rank_sum = 0
        sigma_sum = 0.0
        for start in range(0, trials_per_eps, CHUNK):
            chunk = range(start, min(start + CHUNK, trials_per_eps))
            moved = perturb_rows(base, pspec, streams(seed, (j,), chunk))
            failures = {} if moved.failed is None else \
                {moved.failed: PerturbationFailed(eps, max_retries)}
            sv, first_failure = _chunk_singular_values(
                krylov_blocks(moved.J @ moved.H, moved.B), failures)
            if failures:
                cause = failures[first_failure]
                raise ExperimentError(chunk[first_failure], cause, j, float(eps)) from cause
            rank = threshold_rank(sv, rel_tol)[0]
            count += int(np.count_nonzero(rank == n))
            rank_sum += int(rank.sum())
            for sigma_n in sv[:, n - 1].tolist():  # left to right, as one trial at a time
                sigma_sum += sigma_n
        rows.append(ProbeRow(
            eps=float(eps),
            trials=trials_per_eps,
            controllable_count=count,
            fraction=count / trials_per_eps,
            mean_rank=rank_sum / trials_per_eps,
            mean_sigma_n=sigma_sum / trials_per_eps,
        ))

    config = config_echo if config_echo is not None else {
        "subcommand": "perturb-probe",
        "n": base.dims.n,
        "m": base.dims.m,
        "field": base.field.value,
        "eps_grid": [float(e) for e in eps_grid],
        "trials_per_eps": trials_per_eps,
        "seed": seed,
    }
    return ProbeReport(
        config=config,
        base_rank=base_report.rank,
        rows=rows,
        seeds={"master": seed},
        wall_time=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# Distance to uncontrollability
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridSpec:
    """Resolution of the sigma_min landscape search."""

    points_per_axis: int = 41
    refine_levels: int = 16
    margin: float = 1.0

    def __post_init__(self) -> None:
        if self.points_per_axis < 3:
            raise ValueError("points_per_axis must be at least 3")
        if self.refine_levels < 0:
            raise ValueError("refine_levels must be nonnegative")
        if not math.isfinite(self.margin):
            raise ValueError(f"margin must be finite, got {self.margin}")


@dataclass(frozen=True)
class DistanceEstimate:
    """Best sigma_min found and its argmin; an upper bound of the true
    distance to uncontrollability."""

    value: float
    lam: complex
    evaluations: int


def distance_to_uncontrollability(sys: AnySystem,
                                  grid: GridSpec = GridSpec()) -> DistanceEstimate:
    """Estimate min over complex lam of sigma_min([JH - lam I, B]).

    A coarse grid covers the spectral bounding box |Re lam|, |Im lam|
    <= ||JH||_2 + margin (every eigenvalue of JH lies inside), seeded
    additionally with the eigenvalues of JH; the search then refines
    locally around the incumbent.  The result is the best value found,
    an upper bound of the true distance; it is 0 (up to rounding) iff
    some eigenvalue is unreachable.

    Each P x P scan and the eigenvalue seeding are one pencil_smin call:
    stacked SVDs in chunks of at most ctrb._MINOR_CHUNK_ENTRIES matrix
    entries.  The incumbent moves only to a strictly smaller value, the
    first in x-major order or in eigvals order, as one lam at a time
    would; evaluations counts P^2 per scan plus n.
    """
    A = system_matrix(sys)
    B = np.asarray(sys.B)
    P = grid.points_per_axis
    evaluations = 0

    def improve(lams: np.ndarray, best_value: float, best_lam: complex):
        nonlocal evaluations
        evaluations += len(lams)
        values = pencil_smin(A, B, lams)
        below = np.flatnonzero(values < best_value)
        if below.size:
            k = below[np.argmin(values[below])]
            best_value, best_lam = float(values[k]), complex(lams[k])
        return best_value, best_lam

    def scan(center: complex, half: float, best_value: float):
        xs = np.linspace(center.real - half, center.real + half, P)
        ys = np.linspace(center.imag - half, center.imag + half, P)
        i, j = np.divmod(np.arange(P * P), P)
        lams = np.empty(P * P, dtype=complex)
        lams.real, lams.imag = xs[i], ys[j]  # complex(x, y), signed zeros kept
        return improve(lams, best_value, center)

    half = float(np.linalg.norm(A, 2)) + grid.margin
    best_value, best_lam = scan(0j, half, math.inf)
    best_value, best_lam = improve(np.linalg.eigvals(A).astype(complex), best_value, best_lam)
    for _ in range(grid.refine_levels):
        half = 5.0 * half / (P - 1)
        best_value, best_lam = scan(best_lam, half, best_value)
    return DistanceEstimate(value=best_value, lam=best_lam, evaluations=evaluations)


# ---------------------------------------------------------------------------
# Dense interval union over the positive rationals
# ---------------------------------------------------------------------------


def calkin_wilf(i: int) -> Fraction:
    """i-th positive rational in the breadth-first tree enumeration.

    The map is a bijection from the positive integers onto the positive
    rationals: node a/b has children a/(a+b) and (a+b)/b, and the binary
    digits of i below its leading 1 encode the path from the root 1/1.
    """
    if i < 1:
        raise ValueError(f"index must be >= 1, got {i}")
    num, den = 1, 1
    for bit in bin(i)[3:]:
        if bit == "1":
            num += den
        else:
            den += num
    return Fraction(num, den)


def _next_rational(x: Fraction) -> Fraction:
    return 1 / (2 * (x.numerator // x.denominator) + 1 - x)


@dataclass(frozen=True)
class MembershipResult:
    """Whether a point is covered by the first i_max intervals, and by
    which index when it is."""

    covered: bool
    witness_index: int | None


@dataclass(frozen=True)
class IntervalUnion:
    """Open intervals (c_i - 1/i^2, c_i + 1/i^2) around the enumerated
    positive rationals c_i, intersected with the positive half-line."""

    i_max: int

    def __post_init__(self) -> None:
        if self.i_max < 1:
            raise ValueError(f"i_max must be >= 1, got {self.i_max}")

    def center(self, i: int) -> Fraction:
        return calkin_wilf(i)

    def radius(self, i: int) -> Fraction:
        if i < 1:
            raise ValueError(f"index must be >= 1, got {i}")
        return Fraction(1, i * i)

    def covers(self, i: int, x) -> bool:
        """Exact test of x against interval i alone."""
        xf = Fraction(x)
        return abs(xf - self.center(i)) < self.radius(i)

    def centers(self) -> Iterable[Fraction]:
        """Centers c_1 .. c_{i_max}, enumerated without tree restarts."""
        cur = Fraction(1)
        for _ in range(self.i_max):
            yield cur
            cur = _next_rational(cur)

    def membership(self, x) -> MembershipResult:
        """Scan intervals 1..i_max for one containing x (exact arithmetic)."""
        xf = Fraction(x)
        if xf <= 0:
            raise ValueError(f"x must be positive, got {x}")
        for i, center in enumerate(self.centers(), start=1):
            if abs(xf - center) < Fraction(1, i * i):
                return MembershipResult(covered=True, witness_index=i)
        return MembershipResult(covered=False, witness_index=None)


def prop1_partial_measure(i_max: int) -> float:
    """Sum of the interval lengths 2/i^2 for i <= i_max.

    An overlap-ignoring upper bound for the measure of the partial
    union; strictly increasing in i_max with limit pi^2/3.  Compensated
    summation keeps the value exact to the last bit.
    """
    if i_max < 1:
        raise ValueError(f"i_max must be >= 1, got {i_max}")
    return math.fsum(2.0 / (i * i) for i in range(1, i_max + 1))


def prop1_membership(x, i_max: int) -> MembershipResult:
    """Whether x > 0 lies in one of the first i_max intervals."""
    return IntervalUnion(i_max).membership(x)
