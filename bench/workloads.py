"""The four benchmark workloads: inputs made from a seed, the timed call
into phctrl, and the check of every call's output.

Each workload is a closed loop with one caller: the next call starts
when the previous one has returned, as in a batch study.  A workload is
a fixed cycle of calls and the benchmark always runs whole cycles, so
every run measures the same mix of calls whatever its length.

phctrl is only ever reached through module attributes (``ctrb.rank_svd``
rather than a name bound at import), so the span wrappers that the
traced run installs on those attributes see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from phctrl import cli, core, ctrb, experiments, sample, vectorize

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Outcome:
    """Result of checking one call: units of work it did, how many of
    them failed the check, a record that must repeat bitwise when the
    same call is made again, and workload counters."""

    units: int
    failed: int
    record: object
    disagreements: int = 0


# ---------------------------------------------------------------------------
# mc: the criterion-2 Monte Carlo study
# ---------------------------------------------------------------------------

MC_GRID = tuple((n, m) for n in range(1, 9) for m in range(1, 4))
MC_TRIALS = 500
# sha256 of the counts and sigma_n statistics of cycle 0 at DEFAULT_SEED,
# recorded when the benchmark was defined; these report fields must stay
# bitwise identical.
MC_BASELINE_DIGEST = "9cdb3913f6ed184096673f4ae3b99a5f5bde57402a4b7a61d747862046d4cded"


class MonteCarlo:
    """run_genericity_trial over the criterion-2 grid, Wishart law, real
    field, no cross-check.  One call is one grid cell of MC_TRIALS draws;
    one unit of work is one draw."""

    name = "mc"
    unit = "draw"
    trace_cycle_s = 2.4

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed

    def cycle(self, c: int) -> list:
        return [
            sample.SamplerSpec(core.Dims(n, m), h_law=sample.Wishart(),
                               seed=self.seed * 1_000_000 + 100 * c + 10 * n + m)
            for n, m in MC_GRID
        ]

    def units(self, spec) -> int:
        return MC_TRIALS

    def call(self, spec):
        return experiments.run_genericity_trial(spec, MC_TRIALS)

    def check(self, spec, report) -> Outcome:
        record = {
            "controllable_count": report.controllable_count,
            "trials": report.trials,
            "fraction": report.fraction,
            "min_sigma_n": report.min_sigma_n,
            "sigma_n_stats": report.sigma_n_stats,
        }
        return Outcome(MC_TRIALS, report.trials - report.controllable_count, record)

    def digest_failures(self, first_cycle: list) -> int:
        """Units of cycle 0 to count as failed when its digest moved."""
        if self.seed != DEFAULT_SEED:
            return 0
        if mc_digest(first_cycle) == MC_BASELINE_DIGEST:
            return 0
        return MC_TRIALS * len(MC_GRID)


def mc_digest(records: list) -> str:
    text = json.dumps(records, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# probe: `phctrl perturb-probe`, called in-process through cli.main
# ---------------------------------------------------------------------------

PROBE_TRIALS = 40
PROBE_EPS_GRID = "0,1e-4,1e-3,1e-2,1e-1"
PROBE_STEPS = len(PROBE_EPS_GRID.split(",")) - 1
# Bases whose H is closer than this to singular are screened out: the
# probe halves every step down to about the PD margin, below what the
# rank route resolves, so such a base fails the check at every eps.
# README.md gives the measured rates; the traced run counts the bases.
PROBE_MIN_MARGIN = 1e-4
PROBE_BASES = ((3, 1, 1), (8, 2, 3))
PROBE_POOL = 256


class Probe:
    """perturb-probe on the default (3,1,k=1) base shape and on an
    (8,2,k=3) one given through a --config file.  A cycle makes one call
    of the first and two of the second, so the median and the 90th
    percentile fall among the (8,2,k=3) calls.  The CLI draws the base
    from --seed; the calls of a run cycle through PROBE_POOL seeds of
    each shape, so a run averages over many bases.  One unit of work is
    one perturbation."""

    name = "probe"
    unit = "perturbation"
    trace_cycle_s = 0.15

    def __init__(self, seed: int, out_dir: Path):
        self.report_path = str(out_dir / "probe-report.json")
        self.config_path = str(out_dir / "probe-8-2-3.json")
        Path(self.config_path).write_text(json.dumps(
            {"n": 8, "m": 2, "k": 3, "eps_grid": PROBE_EPS_GRID}))
        self.sink = io.StringIO()
        self.screened = 0
        self.seeds = []
        for slot, (n, m, k) in enumerate(PROBE_BASES):
            kept = []
            candidate = seed * 1_000_000 + slot * 500_000
            while len(kept) < PROBE_POOL:
                # the same draw as `phctrl perturb-probe --seed candidate`
                base = sample.sample_uncontrollable(core.Dims(n, m), k,
                                                    sample.stream(candidate))
                if base.pd_margin >= PROBE_MIN_MARGIN:
                    kept.append(candidate)
                else:
                    self.screened += 1
                candidate += 1
            self.seeds.append(kept)

    def cycle(self, c: int) -> list:
        """(n of the base, argv) for each call of cycle c."""
        common = ["--trials-per-eps", str(PROBE_TRIALS), "--json", self.report_path]
        small, big = self.seeds
        return [
            (3, ["perturb-probe", "--eps-grid", PROBE_EPS_GRID,
                 "--seed", str(small[c % PROBE_POOL]), *common]),
            *((8, ["perturb-probe", "--config", self.config_path,
                   "--seed", str(big[(2 * c + i) % PROBE_POOL]), *common])
              for i in (0, 1)),
        ]

    def units(self, item) -> int:
        return PROBE_TRIALS * PROBE_STEPS

    def call(self, item):
        self.sink.seek(0)
        self.sink.truncate()
        with contextlib.redirect_stdout(self.sink):
            return cli.main(item[1])

    def check(self, item, code) -> Outcome:
        units = self.units(item)
        if code != 0:
            return Outcome(units, units, ("exit", code))
        with open(self.report_path) as fp:
            report = json.load(fp)
        rows = report["rows"]
        failed = sum(row["trials"] - row["controllable_count"]
                     for row in rows if row["eps"] > 0)
        if (len(rows) != PROBE_STEPS + 1 or rows[0]["eps"] != 0.0
                or rows[0]["fraction"] != 0.0 or report["base_rank"] >= item[0]):
            failed = units
        report["wall_time"] = 0.0
        return Outcome(units, failed, json.dumps(report, sort_keys=True))


# ---------------------------------------------------------------------------
# inputs generated by the benchmark for certify and distance
# ---------------------------------------------------------------------------


def _gauss(rng: np.random.Generator, shape, complex_field: bool) -> np.ndarray:
    g = rng.standard_normal(shape)
    return g + 1j * rng.standard_normal(shape) if complex_field else g


def make_system(rng: np.random.Generator, kind: str, complex_field: bool,
                n: int, m: int, k: int = 0):
    """(J, H, B, controllable) for one instance; the flag is the truth of
    the construction, not a computed verdict.

    ph: Wishart H; pht: indefinite symmetric H; witness: the skew shift
    with H = I and B = [e1, 0]; uncontrollable: block-diagonal J and H
    whose trailing k states B does not reach, rotated by a random
    unitary Q so that no zero pattern gives it away.
    """
    if kind == "witness":
        J = np.zeros((n, n))
        idx = np.arange(n - 1)
        J[idx + 1, idx] = 1.0
        J[idx, idx + 1] = -1.0
        B = np.zeros((n, m))
        B[0, 0] = 1.0
        return J, np.eye(n), B, True
    if kind == "uncontrollable":
        n1 = n - k
        J = np.zeros((n, n), dtype=complex if complex_field else float)
        H = np.zeros_like(J)
        for lo, hi in ((0, n1), (n1, n)):
            G = _gauss(rng, (hi - lo, hi - lo), complex_field)
            J[lo:hi, lo:hi] = (G - G.conj().T) / 2.0
            A = _gauss(rng, (hi - lo, hi - lo), complex_field)
            H[lo:hi, lo:hi] = A @ A.conj().T / (hi - lo)
        B = np.zeros((n, m), dtype=J.dtype)
        B[:n1] = _gauss(rng, (n1, m), complex_field)
        Q, _ = np.linalg.qr(_gauss(rng, (n, n), complex_field))
        return Q @ J @ Q.conj().T, Q @ H @ Q.conj().T, Q @ B, False
    G = _gauss(rng, (n, n), complex_field)
    J = (G - G.conj().T) / 2.0
    if kind == "ph":
        A = _gauss(rng, (n, n), complex_field)
        H = A @ A.conj().T / n
    else:
        G = _gauss(rng, (n, n), complex_field)
        H = (G + G.conj().T) / 2.0
    return J, H, _gauss(rng, (n, m), complex_field), True


def _encode(M: np.ndarray, complex_field: bool) -> list:
    if complex_field:
        return [[[float(x.real), float(x.imag)] for x in row] for row in M]
    return [[float(x) for x in row] for row in M]


def system_json(J, H, B, complex_field: bool) -> str:
    """The JSON interchange form that every phctrl subcommand reads."""
    n, m = B.shape
    return json.dumps({
        "field": "complex" if complex_field else "real", "n": n, "m": m,
        "J": _encode(J, complex_field), "H": _encode(H, complex_field),
        "B": _encode(B, complex_field),
    })


# ---------------------------------------------------------------------------
# certify: decode, pack/unpack roundtrip, rank, PBH and minors per system
# ---------------------------------------------------------------------------

# (kind, complex field, n, m, k).  A cycle holds 30 systems in cost
# blocks, cheapest first: 9 cheap, 4 small minor sets, 4 uncontrollable
# (5,2) systems of equal cost (the median falls in this block), 5 larger
# minor sets, 6 witnesses with n >= 45 (the 90th percentile falls here)
# and the two q ~ 1e5 minor sets above it.  Minors run wherever C(nm, n)
# is at most the default cap; the systems that reach them are the ones
# for which the minor verdict proved reliable (README.md).
CERTIFY_CYCLE = (
    ("ph", False, 3, 1, 0),
    ("ph", True, 3, 2, 0),
    ("pht", False, 3, 2, 0),
    ("pht", True, 3, 1, 0),
    ("ph", True, 12, 3, 0),
    ("pht", True, 12, 3, 0),
    ("uncontrollable", False, 10, 3, 4),
    ("uncontrollable", True, 12, 2, 5),
    ("ph", False, 20, 2, 0),
    ("ph", False, 4, 2, 0),
    ("ph", False, 3, 3, 0),
    ("uncontrollable", True, 3, 2, 1),
    ("uncontrollable", False, 4, 2, 2),
    ("uncontrollable", False, 5, 2, 1),
    ("uncontrollable", False, 5, 2, 2),
    ("uncontrollable", False, 5, 2, 3),
    ("uncontrollable", False, 5, 2, 4),
    ("ph", False, 4, 3, 0),
    ("pht", False, 4, 3, 0),
    ("uncontrollable", True, 5, 2, 2),
    ("uncontrollable", True, 4, 3, 1),
    ("uncontrollable", False, 4, 3, 2),
    ("witness", False, 45, 3, 0),
    ("witness", False, 48, 4, 0),
    ("witness", False, 50, 2, 0),
    ("witness", False, 50, 3, 0),
    ("witness", False, 50, 4, 0),
    ("witness", False, 50, 5, 0),
    ("ph", False, 4, 10, 0),
    ("uncontrollable", False, 5, 5, 2),
)
CERTIFY_POOL = 4


@dataclass(frozen=True)
class Instance:
    text: str
    controllable: bool
    run_minors: bool


class Certify:
    """A per-system certification pipeline in the manner of `phctrl check`
    and criterion 4.  One call certifies one system given as JSON text;
    one unit of work is one system."""

    name = "certify"
    unit = "system"
    trace_cycle_s = 1.5

    def __init__(self, seed: int, out_dir: Path):
        self.pool = []
        for c in range(CERTIFY_POOL):
            batch = []
            for slot, (kind, cplx, n, m, k) in enumerate(CERTIFY_CYCLE):
                rng = np.random.default_rng((seed, c, slot))
                J, H, B, truth = make_system(rng, kind, cplx, n, m, k)
                q = math.comb(n * m, n)
                batch.append(Instance(system_json(J, H, B, cplx), truth,
                                      q <= ctrb.DEFAULT_MINOR_CAP))
            self.pool.append(batch)

    def cycle(self, c: int) -> list:
        return self.pool[c % CERTIFY_POOL]

    def units(self, inst) -> int:
        return 1

    def call(self, inst: Instance):
        system = core.system_from_dict(json.loads(inst.text))
        roundtrip = vectorize.unpack(vectorize.pack(system))
        kal = ctrb.kalman_matrix(system)
        rank = ctrb.rank_svd(kal)
        pbh = ctrb.pbh_check(system)
        minors = ctrb.minors_order_n(kal).controllable() if inst.run_minors else None
        return system, roundtrip, rank, pbh, minors

    def check(self, inst: Instance, result) -> Outcome:
        system, roundtrip, rank, pbh, minors = result
        ok = (roundtrip == system and pbh == inst.controllable
              and minors in (None, inst.controllable))
        record = (rank.rank, rank.singular_values, pbh, minors)
        return Outcome(1, 0 if ok else 1, record,
                       int(rank.controllable != inst.controllable))


# ---------------------------------------------------------------------------
# distance: the grid + refinement estimator with the default GridSpec
# ---------------------------------------------------------------------------

# The estimate counts as zero below this share of ||JH||_2 + ||B||_2.
DISTANCE_ZERO = 1e-10
# Five of seven calls are random n = 8 systems, which cost the same, so
# the median and the 90th percentile both fall inside that cost class.
DISTANCE_CYCLE = (
    ("witness", 8, 2, 0),
    ("ph", 3, 1, 0),
    ("ph", 8, 2, 0),
    ("ph", 8, 2, 0),
    ("ph", 8, 2, 0),
    ("ph", 8, 2, 0),
    ("uncontrollable", 8, 2, 3),
)
DISTANCE_POOL = 3


class Distance:
    """distance_to_uncontrollability with the default GridSpec.  One call
    is one estimate and is the unit of work."""

    name = "distance"
    unit = "estimate"
    trace_cycle_s = 5.6

    def __init__(self, seed: int, out_dir: Path):
        self.pool = []
        for c in range(DISTANCE_POOL):
            batch = []
            for slot, (kind, n, m, k) in enumerate(DISTANCE_CYCLE):
                rng = np.random.default_rng((seed, c, slot))
                J, H, B, truth = make_system(rng, kind, False, n, m, k)
                scale = float(np.linalg.norm(J @ H, 2) + np.linalg.norm(B, 2))
                batch.append((core.validate_pht(J, H, B), truth, DISTANCE_ZERO * scale))
            self.pool.append(batch)

    def cycle(self, c: int) -> list:
        return self.pool[c % DISTANCE_POOL]

    def units(self, item) -> int:
        return 1

    def call(self, item):
        return experiments.distance_to_uncontrollability(item[0])

    def check(self, item, estimate) -> Outcome:
        _, controllable, zero = item
        ok = estimate.value > zero if controllable else estimate.value <= zero
        record = (estimate.value, estimate.lam, estimate.evaluations)
        return Outcome(1, 0 if ok else 1, record)


WORKLOADS = {w.name: w for w in (MonteCarlo, Probe, Certify, Distance)}
