"""Monte Carlo studies, distance estimation, and the rational interval union."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from phctrl import core as core_mod
from phctrl import ctrb as ctrb_mod
from phctrl import experiments as experiments_mod
from phctrl import sample as sample_mod
from phctrl.core import Dims, PHTSystem, ScalarField, validate_ph, validate_pht
from phctrl.ctrb import (
    DEFAULT_PBH_TOL,
    canonical_witness,
    kalman_matrix,
    krylov_blocks,
    pbh_check,
    rank_svd,
    resolve_rel_tol,
    singular_values,
)
from phctrl.errors import (
    BaseNotUncontrollable,
    DegenerateDraw,
    ExperimentError,
    PerturbationFailed,
    PhctrlError,
    SvdFailure,
)
from phctrl.experiments import (
    CHUNK,
    GridSpec,
    IntervalUnion,
    PI_SQUARED_THIRD,
    ProbeRow,
    calkin_wilf,
    distance_to_uncontrollability,
    prop1_membership,
    prop1_partial_measure,
    run_genericity_trial,
    run_nowhere_density_probe,
    stable_json,
)
from phctrl.sample import (
    PerturbationSpec,
    SamplerSpec,
    ShiftedGram,
    Wishart,
    perturb,
    perturb_rows,
    sample_ph,
    sample_uncontrollable,
    stream,
)


class TestGenericityTrial:
    def test_small_batch_all_controllable(self):
        spec = SamplerSpec(Dims(4, 2), seed=900)
        report = run_genericity_trial(spec, 300)
        assert report.fraction == 1.0
        assert report.controllable_count == 300
        assert report.min_sigma_n > 0.0
        assert report.sigma_n_stats["min"] <= report.sigma_n_stats["median"]
        assert 0.0 <= report.fraction <= 1.0

    def test_scalar_case(self):
        # n = m = 1: controllable iff B != 0, which holds almost surely
        report = run_genericity_trial(SamplerSpec(Dims(1, 1), seed=901), 300)
        assert report.fraction == 1.0

    def test_cross_check_agreement(self):
        report = run_genericity_trial(SamplerSpec(Dims(3, 2), seed=902), 100,
                                      cross_check=True)
        assert report.pbh_agreements == 100

    def test_report_reproducible(self):
        spec = SamplerSpec(Dims(3, 1), seed=903)
        r1 = run_genericity_trial(spec, 50)
        r2 = run_genericity_trial(spec, 50)
        assert stable_json(r1.to_dict()) == stable_json(r2.to_dict())

    def test_single_trial_reproducible(self):
        spec = SamplerSpec(Dims(2, 1), seed=904)
        r1 = run_genericity_trial(spec, 1)
        r2 = run_genericity_trial(spec, 1)
        assert r1.min_sigma_n == r2.min_sigma_n

    def test_config_echo_present(self):
        report = run_genericity_trial(SamplerSpec(Dims(2, 1), seed=905), 10)
        assert report.config["n"] == 2
        assert report.config["seed"] == 905
        assert report.seeds == {"master": 905}
        parsed = json.loads(report.to_json())
        assert parsed["trials"] == 10

    def test_trials_gate(self):
        with pytest.raises(ValueError):
            run_genericity_trial(SamplerSpec(Dims(2, 1)), 0)

    def test_complex_field_batch(self):
        spec = SamplerSpec(Dims(3, 2), field=ScalarField.COMPLEX, seed=906)
        report = run_genericity_trial(spec, 200, cross_check=True)
        assert report.fraction == 1.0
        assert report.pbh_agreements == 200


def per_trial_rows(spec, trials, rank_rel_tol=None, cross_check=False):
    """Reference: the public per-trial composition, one trial at a time,
    with the failing trial's index attached as run_genericity_trial does."""
    sigma_n, controllable, agreed = [], [], []
    for i in range(trials):
        try:
            system = sample_ph(spec, stream(spec.seed, i))
            report = rank_svd(kalman_matrix(system), rank_rel_tol)
            if cross_check:
                agreed.append(pbh_check(system, DEFAULT_PBH_TOL) == report.controllable)
        except PhctrlError as e:
            raise ExperimentError(i, e) from e
        sigma_n.append(report.singular_values[spec.dims.n - 1])
        controllable.append(report.controllable)
    return sigma_n, controllable, sum(agreed)


def chunked_rows(spec, trials, rank_rel_tol=None, cross_check=False):
    """The same rows from the chunked evaluation run_genericity_trial uses."""
    rel_tol = resolve_rel_tol(spec.dims, rank_rel_tol)
    sigma_n, controllable, agreed = [], [], 0
    for start in range(0, trials, CHUNK):
        rows = range(start, min(start + CHUNK, trials))
        s, c, a = experiments_mod._trial_rows(spec, rows, rel_tol, DEFAULT_PBH_TOL,
                                              cross_check)
        sigma_n += s.tolist()
        controllable += c.tolist()
        agreed += a
    return sigma_n, controllable, agreed


def report_fields(report):
    d = report.to_dict()
    return {k: d[k] for k in ("trials", "controllable_count", "fraction", "min_sigma_n",
                              "sigma_n_stats", "pbh_agreements")}


def reference_fields(spec, trials, rank_rel_tol=None, cross_check=False):
    sigma_n, controllable, agreed = per_trial_rows(spec, trials, rank_rel_tol, cross_check)
    ordered = sorted(sigma_n)
    stats = {"min": ordered[0], "median": ordered[trials // 2], "max": ordered[-1]}
    count = sum(controllable)
    return {"trials": trials, "controllable_count": count, "fraction": count / trials,
            "min_sigma_n": stats["min"], "sigma_n_stats": stats,
            "pbh_agreements": agreed if cross_check else None}


def gate_with(extra_rejection):
    """The positive definiteness gate, also rejecting where extra_rejection(H,
    smallest) holds; installed where validate_ph and sample_ph_rows read it."""
    gate = core_mod.pd_gate

    def patched(H, delta=None):
        smallest, delta, rejected = gate(H, delta)
        return smallest, delta, rejected | extra_rejection(H, smallest)

    return patched


def install_gate(monkeypatch, patched):
    monkeypatch.setattr(core_mod, "pd_gate", patched)
    monkeypatch.setattr(sample_mod, "pd_gate", patched)


class TestChunkedTrials:
    """run_genericity_trial evaluates trials in stacked chunks; every row and
    every report byte equals the per-trial composition
    rank_svd(kalman_matrix(sample_ph(spec, stream(seed, i))))."""

    @pytest.mark.parametrize("trials", [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3])
    @pytest.mark.parametrize("field", list(ScalarField))
    @pytest.mark.parametrize("law", [Wishart(), ShiftedGram(0.25)], ids=["wishart", "gram"])
    def test_matches_per_trial(self, trials, field, law):
        spec = SamplerSpec(Dims(4, 2), field=field, h_law=law, j_scale=0.7,
                           b_scale=1.5, seed=950 + trials)
        assert report_fields(run_genericity_trial(spec, trials)) == \
            reference_fields(spec, trials)
        assert chunked_rows(spec, trials) == per_trial_rows(spec, trials)

    @pytest.mark.parametrize("chunk", [1, 7, CHUNK + 1])
    def test_no_byte_depends_on_chunk_size(self, monkeypatch, chunk):
        spec = SamplerSpec(Dims(3, 2), field=ScalarField.COMPLEX, seed=958)
        expected = stable_json(run_genericity_trial(spec, CHUNK + 2, cross_check=True).to_dict())
        monkeypatch.setattr(experiments_mod, "CHUNK", chunk)
        report = run_genericity_trial(spec, CHUNK + 2, cross_check=True)
        assert stable_json(report.to_dict()) == expected

    @pytest.mark.parametrize("dims", [Dims(1, 1), Dims(8, 3), Dims(6, 1)])
    def test_explicit_rank_rel_tol(self, dims):
        # a coarse threshold makes some draws uncontrollable
        spec = SamplerSpec(dims, seed=951)
        fields = report_fields(run_genericity_trial(spec, CHUNK + 5, rank_rel_tol=1e-3))
        assert fields == reference_fields(spec, CHUNK + 5, 1e-3)
        if dims.n > 1:
            assert fields["controllable_count"] < CHUNK + 5

    @pytest.mark.parametrize("field", list(ScalarField))
    def test_cross_check(self, field):
        spec = SamplerSpec(Dims(3, 1), field=field, seed=952)
        report = run_genericity_trial(spec, CHUNK + 7, cross_check=True, rank_rel_tol=1e-6)
        assert report_fields(report) == reference_fields(spec, CHUNK + 7, 1e-6, True)

    def test_rejected_rows_redraw_bitwise(self, monkeypatch):
        # reject the first attempt of chosen trials: those rows, and only
        # those, redraw H and B from their own stream
        spec = SamplerSpec(Dims(3, 2), field=ScalarField.COMPLEX, seed=953)
        trials = 2 * CHUNK + 3
        chosen = (0, CHUNK - 1, CHUNK + 2, 2 * CHUNK + 2)
        first_h = {sample_ph(spec, stream(spec.seed, i)).H.tobytes() for i in chosen}
        seen = []

        def first_attempt_of_chosen(H, smallest):
            hit = np.array([h.tobytes() in first_h for h in H.reshape((-1,) + H.shape[-2:])])
            seen.append(int(hit.sum()))
            return hit.reshape(smallest.shape)

        install_gate(monkeypatch, gate_with(first_attempt_of_chosen))
        expected = per_trial_rows(spec, trials)
        seen.clear()
        assert chunked_rows(spec, trials) == expected
        assert sum(seen) == len(chosen)
        monkeypatch.undo()
        assert per_trial_rows(spec, trials) != expected  # the redraws moved rows

    def test_repeated_rejections_bitwise(self, monkeypatch):
        # a raised floor rejects about one attempt in four, so rows retry up
        # to four times; no row runs out of attempts at this seed
        spec = SamplerSpec(Dims(3, 1), seed=954)
        install_gate(monkeypatch, gate_with(lambda H, smallest: smallest < 0.01))
        trials = CHUNK + 9
        expected = per_trial_rows(spec, trials)
        assert chunked_rows(spec, trials) == expected
        assert report_fields(run_genericity_trial(spec, trials)) == \
            reference_fields(spec, trials)

    @pytest.mark.parametrize("seed", [955, 959, 970])  # first in chunk 0, 1, 2
    def test_degenerate_draw_index(self, monkeypatch, seed):
        # a floor that rejects most attempts exhausts MAX_PD_RETRIES on some
        # trials; the chunk names the first of them, as the loop would
        spec = SamplerSpec(Dims(2, 1), seed=seed)
        install_gate(monkeypatch, gate_with(lambda H, smallest: smallest < 0.05))
        with pytest.raises(ExperimentError) as ref:
            per_trial_rows(spec, 3 * CHUNK)
        with pytest.raises(ExperimentError) as got:
            run_genericity_trial(spec, 3 * CHUNK)
        assert isinstance(ref.value.__cause__, DegenerateDraw)
        assert isinstance(got.value.__cause__, DegenerateDraw)
        assert got.value.trial == ref.value.trial
        assert str(got.value) == str(ref.value)

    @pytest.mark.parametrize("seed,gate_floor", [
        (3, None), (10, None), (4, None),  # first SVD failure in chunk 0, 1, 2
        (6, 3e-3),  # a draw failure, then an SVD failure, in one chunk
        (18, 3e-3), (27, 3e-3),  # an SVD failure, then a draw failure, in one chunk
    ])
    def test_svd_failure_index(self, monkeypatch, seed, gate_floor):
        # J scaled so far that (JH)^7 B overflows on a few trials: their SVD
        # fails.  With a raised PD floor, draw failures compete with SVD
        # failures and the earliest trial must win either way.
        spec = SamplerSpec(Dims(8, 1), j_scale=2e43, seed=seed)
        if gate_floor is not None:
            install_gate(monkeypatch, gate_with(lambda H, smallest: smallest < gate_floor))
        with np.errstate(all="ignore"):
            with pytest.raises(ExperimentError) as ref:
                per_trial_rows(spec, 400)
            with pytest.raises(ExperimentError) as got:
                run_genericity_trial(spec, 400)
        assert got.value.trial == ref.value.trial
        assert type(got.value.__cause__) is type(ref.value.__cause__)
        assert str(got.value) == str(ref.value)
        if gate_floor is None:
            assert isinstance(got.value.__cause__, SvdFailure)


class TestSpecsRejectNonFinite:
    @pytest.mark.parametrize("make", [
        lambda: SamplerSpec(Dims(2, 1), j_scale=float("nan")),
        lambda: SamplerSpec(Dims(2, 1), j_scale=math.inf),
        lambda: SamplerSpec(Dims(2, 1), b_scale=float("nan")),
        lambda: SamplerSpec(Dims(2, 1), h_law=ShiftedGram(math.inf)),
        lambda: SamplerSpec(Dims(2, 1), h_law=ShiftedGram(float("nan"))),
        lambda: PerturbationSpec(float("nan")),
        lambda: PerturbationSpec(math.inf),
        lambda: PerturbationSpec(1e-3, j_scale=float("nan")),
        lambda: PerturbationSpec(1e-3, h_scale=math.inf),
        lambda: PerturbationSpec(1e-3, b_scale=float("nan")),
        lambda: GridSpec(margin=float("nan")),
        lambda: GridSpec(margin=-math.inf),
    ])
    def test_rejected_at_construction(self, make):
        with pytest.raises(ValueError):
            make()


def per_trial_probe(base, eps_grid, trials, seed, rank_rel_tol=None, max_retries=60):
    """Reference: the probe rows from one perturbation at a time,
    rank_svd(kalman_matrix(perturb(base, spec, stream(seed, j, t)))), with
    the failing trial and its step attached as run_nowhere_density_probe
    does."""
    n = base.dims.n
    rows = []
    for j, eps in enumerate(eps_grid):
        if eps == 0.0:
            report = rank_svd(kalman_matrix(base), rank_rel_tol)
            rows.append(ProbeRow(0.0, trials, 0, 0.0, float(report.rank),
                                 report.singular_values[n - 1]))
            continue
        spec = PerturbationSpec(epsilon=eps, max_retries=max_retries)
        count = rank_sum = 0
        sigma_sum = 0.0
        for t in range(trials):
            try:
                moved = perturb(base, spec, stream(seed, j, t)).system
                report = rank_svd(kalman_matrix(moved), rank_rel_tol)
            except PhctrlError as e:
                raise ExperimentError(t, e, j, float(eps)) from e
            count += report.controllable
            rank_sum += report.rank
            sigma_sum += report.singular_values[n - 1]
        rows.append(ProbeRow(float(eps), trials, count, count / trials, rank_sum / trials,
                             sigma_sum / trials))
    return rows


def assert_same_rows(rows, reference):
    assert [repr(row) for row in rows] == [repr(row) for row in reference]
    for row, ref in zip(rows, reference):
        assert np.float64(row.mean_sigma_n).tobytes() == np.float64(ref.mean_sigma_n).tobytes()
        assert np.float64(row.mean_rank).tobytes() == np.float64(ref.mean_rank).tobytes()


PROBE_GRID = [0.0, 1e-6, 1e-2, 0.3]


def decoupled_base(h_block, h_third):
    """An uncontrollable (3,1) base with H = diag(h_block, h_block, h_third):
    state 3 is decoupled from the input and from states 1 and 2."""
    J = np.zeros((3, 3))
    J[0, 1], J[1, 0] = -1.0, 1.0
    return validate_ph(validate_pht(J, np.diag([h_block, h_block, h_third]),
                                    [[1.0], [0.0], [0.0]]))


class TestNowhereDensityProbe:
    def test_fractions_by_eps(self):
        base = sample_uncontrollable(Dims(3, 1), 1, stream(910))
        report = run_nowhere_density_probe(base, [0.0, 1e-6, 1e-2], 60, seed=911)
        by_eps = {row.eps: row for row in report.rows}
        assert by_eps[0.0].fraction == 0.0
        assert by_eps[1e-6].fraction == 1.0
        assert by_eps[1e-2].fraction == 1.0
        assert by_eps[0.0].mean_rank == report.base_rank

    def test_fraction_nondecreasing_in_eps(self):
        base = sample_uncontrollable(Dims(3, 1), 1, stream(912))
        eps_grid = [0.0] + [10.0 ** e for e in range(-8, -1)]
        report = run_nowhere_density_probe(base, eps_grid, 40, seed=913)
        fractions = [row.fraction for row in report.rows]
        inversions = sum(b < a for a, b in zip(fractions, fractions[1:]))
        assert inversions <= 1

    def test_controllable_base_rejected(self):
        with pytest.raises(BaseNotUncontrollable):
            run_nowhere_density_probe(canonical_witness(3, 1), [1e-3], 5)

    def test_csv_shape(self):
        base = sample_uncontrollable(Dims(2, 1), 1, stream(914))
        report = run_nowhere_density_probe(base, [0.0, 1e-4], 10, seed=915)
        lines = report.to_csv().strip().split("\n")
        assert lines[0] == "eps,trials,controllable_count,fraction,mean_rank,mean_sigma_n"
        assert len(lines) == 3

    def test_report_reproducible(self):
        base = sample_uncontrollable(Dims(3, 1), 1, stream(916))
        r1 = run_nowhere_density_probe(base, [0.0, 1e-5], 25, seed=917)
        r2 = run_nowhere_density_probe(base, [0.0, 1e-5], 25, seed=917)
        assert stable_json(r1.to_dict()) == stable_json(r2.to_dict())

    def test_eps_grid_gate(self):
        base = sample_uncontrollable(Dims(2, 1), 1, stream(918))
        with pytest.raises(ValueError):
            run_nowhere_density_probe(base, [-1e-3], 5)

    @pytest.mark.parametrize("trials", [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3])
    @pytest.mark.parametrize("field", list(ScalarField))
    @pytest.mark.parametrize("n,m,k", [(3, 1, 1), (8, 2, 3)])
    def test_matches_per_trial(self, trials, field, n, m, k):
        base = sample_uncontrollable(Dims(n, m), k, stream(960, trials), field=field)
        report = run_nowhere_density_probe(base, PROBE_GRID, trials, seed=961)
        assert_same_rows(report.rows, per_trial_probe(base, PROBE_GRID, trials, 961))

    @pytest.mark.parametrize("field", list(ScalarField))
    def test_explicit_rank_rel_tol_and_retries(self, field):
        # a coarse threshold reads some small steps as uncontrollable, and a
        # near-singular H makes the large steps halve
        base = sample_uncontrollable(Dims(8, 2), 3, stream(962), field=field)
        grid = [1e-9, 1e-4, 0.5, 2.0]
        report = run_nowhere_density_probe(base, grid, CHUNK + 5, seed=963,
                                           rank_rel_tol=1e-6, max_retries=45)
        assert_same_rows(report.rows,
                         per_trial_probe(base, grid, CHUNK + 5, 963, 1e-6, 45))
        assert report.rows[0].controllable_count < CHUNK + 5

    @pytest.mark.parametrize("chunk", [1, 7, CHUNK + 1])
    def test_no_byte_depends_on_chunk_size(self, monkeypatch, chunk):
        base = sample_uncontrollable(Dims(3, 1), 1, stream(964), field=ScalarField.COMPLEX)
        expected = stable_json(run_nowhere_density_probe(base, PROBE_GRID, CHUNK + 2,
                                                         seed=965).to_dict())
        monkeypatch.setattr(experiments_mod, "CHUNK", chunk)
        report = run_nowhere_density_probe(base, PROBE_GRID, CHUNK + 2, seed=965)
        assert stable_json(report.to_dict()) == expected

    @pytest.mark.parametrize("eps,seed", [(1.3e-6, 960), (1.3e-6, 970), (1.2e-6, 963)])
    def test_failure_index(self, eps, seed):
        # H = diag(1, 1, 1e-6): with no halving allowed, a few steps of
        # these sizes leave the cone; the first such trial is in chunk 0
        # (seed 960) or chunk 1 (970, 963)
        base = decoupled_base(1.0, 1e-6)
        grid = [0.0, 1e-9, eps]
        with pytest.raises(ExperimentError) as ref:
            per_trial_probe(base, grid, 3 * CHUNK, seed, max_retries=0)
        with pytest.raises(ExperimentError) as got:
            run_nowhere_density_probe(base, grid, 3 * CHUNK, seed=seed, max_retries=0)
        assert isinstance(got.value.__cause__, PerturbationFailed)
        assert (got.value.trial, got.value.eps_index, got.value.eps) == \
            (ref.value.trial, 2, eps)
        assert str(got.value) == str(ref.value)
        assert str(got.value).startswith(f"eps[2] = {eps!r}, trial {ref.value.trial}: ")
        assert (ref.value.trial >= CHUNK) == (seed != 960)

    @pytest.mark.parametrize("seed,cause", [
        (960, PerturbationFailed), (961, PerturbationFailed), (962, SvdFailure), (963, SvdFailure),
    ])
    def test_draw_failure_beats_svd_failure(self, seed, cause):
        # H = 5e152 I and a step of 1e153: the step leaves the cone on some
        # trials, and on every trial (JH)^2 B overflows, so the failing
        # trial 0 has a failed SVD too; its draw failure must win
        base = decoupled_base(5e152, 5e152)
        grid = [0.0, 1e-9, 1e153]
        with np.errstate(all="ignore"):
            with pytest.raises(ExperimentError) as ref:
                per_trial_probe(base, grid, CHUNK + 3, seed, max_retries=0)
            with pytest.raises(ExperimentError) as got:
                run_nowhere_density_probe(base, grid, CHUNK + 3, seed=seed, max_retries=0)
            moved = perturb_rows(base, PerturbationSpec(1e153, max_retries=0),
                                 [stream(seed, 2, 0)])
            with pytest.raises(SvdFailure):
                singular_values(krylov_blocks(moved.J @ moved.H, moved.B))
        assert type(ref.value.__cause__) is cause
        assert type(got.value.__cause__) is cause
        assert got.value.trial == ref.value.trial == 0
        assert str(got.value) == str(ref.value)


def test_experiment_error_messages():
    # a Monte Carlo trial replays from stream(seed, i), a probe trial from
    # stream(seed, j, t): the probe message names the step as well
    assert str(ExperimentError(7, SvdFailure("x"))) == "trial 7: x"
    error = ExperimentError(7, SvdFailure("x"), 2, 1e-3)
    assert str(error) == "eps[2] = 0.001, trial 7: x"
    assert (error.trial, error.eps_index, error.eps) == (7, 2, 1e-3)


def per_lam_distance(sys, grid=GridSpec()):
    """Reference: the grid search evaluating one lam at a time, in x-major
    then y order, with the eigenvalues cast to complex as seeds."""
    A = sys.J @ sys.H
    B = np.asarray(sys.B)
    eye = np.eye(sys.dims.n)
    evaluations = 0

    def smin(lam):
        nonlocal evaluations
        evaluations += 1
        return float(np.linalg.svd(np.hstack([A - lam * eye, B]), compute_uv=False)[-1])

    def scan(center, half):
        xs = np.linspace(center.real - half, center.real + half, grid.points_per_axis)
        ys = np.linspace(center.imag - half, center.imag + half, grid.points_per_axis)
        best_v, best_l = math.inf, center
        for x in xs:
            for y in ys:
                v = smin(complex(x, y))
                if v < best_v:
                    best_v, best_l = v, complex(x, y)
        return best_v, best_l

    half = float(np.linalg.norm(A, 2)) + grid.margin
    best_value, best_lam = scan(0j, half)
    for lam in np.linalg.eigvals(A):
        v = smin(complex(lam))
        if v < best_value:
            best_value, best_lam = v, complex(lam)
    for _ in range(grid.refine_levels):
        half = 5.0 * half / (grid.points_per_axis - 1)
        v, lam = scan(best_lam, half)
        if v < best_value:
            best_value, best_lam = v, lam
    return best_value, best_lam, evaluations


def assert_same_estimate(est, reference):
    value, lam, evaluations = reference
    assert type(est.value) is float and type(est.lam) is complex
    assert np.float64(est.value).tobytes() == np.float64(value).tobytes()
    assert np.complex128(est.lam).tobytes() == np.complex128(lam).tobytes()
    assert est.evaluations == evaluations


SMALL_GRID = GridSpec(points_per_axis=9, refine_levels=4)


class TestDistance:
    @pytest.mark.parametrize("make", [
        pytest.param(lambda: sample_mod.sample_ph(sample_mod.SamplerSpec(Dims(4, 2), seed=41),
                                                  sample_mod.stream(41, 0)), id="ph-real"),
        pytest.param(lambda: sample_mod.sample_ph(
            sample_mod.SamplerSpec(Dims(3, 1), field=ScalarField.COMPLEX, seed=41),
            sample_mod.stream(41, 1)), id="ph-complex"),
        pytest.param(lambda: sample_mod.sample_pht(
            sample_mod.SamplerSpec(Dims(3, 2), field=ScalarField.COMPLEX, seed=41),
            sample_mod.stream(41, 2)), id="pht-complex"),
        pytest.param(lambda: sample_mod.sample_uncontrollable(
            Dims(4, 2), 2, sample_mod.stream(41, 3)), id="uncontrollable-real"),
        pytest.param(lambda: sample_mod.sample_uncontrollable(
            Dims(3, 1), 1, sample_mod.stream(41, 4), field=ScalarField.COMPLEX),
            id="uncontrollable-complex"),
        pytest.param(lambda: canonical_witness(3, 2), id="witness"),
    ])
    @pytest.mark.parametrize("grid", [SMALL_GRID, GridSpec(points_per_axis=4, refine_levels=2,
                                                           margin=0.0)],
                             ids=["odd-grid", "even-grid"])
    def test_matches_per_lam_reference(self, make, grid):
        sys = make()
        assert_same_estimate(distance_to_uncontrollability(sys, grid),
                             per_lam_distance(sys, grid))

    def test_matches_per_lam_reference_with_real_eigvals(self):
        # PHT triples whose JH has only real eigenvalues: eigvals returns
        # float64, and the seeds must still be complex pencils, whose
        # sigma differs from the real pencil's in the last bits
        spec = sample_mod.SamplerSpec(Dims(2, 1), seed=42)
        draw = next(s for s in (sample_mod.sample_pht(spec, sample_mod.stream(42, i))
                                for i in range(50))
                    if np.linalg.eigvals(s.J @ s.H).dtype == np.float64)
        assert_same_estimate(distance_to_uncontrollability(draw, SMALL_GRID),
                             per_lam_distance(draw, SMALL_GRID))
        # JH has eigenvalues 1, -1, 0 and B is orthogonal to the left
        # eigenvector (1, 1, 0) of 1, so without refinement the winning
        # lam is the seed 1
        rng = np.random.default_rng(45)
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        J = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        H = np.diag([1.0, -1.0, 1.0])
        B = np.array([[1.0], [-1.0], [1.0]])
        sys = core_mod.validate_pht(Q @ J @ Q.T, Q @ H @ Q.T, Q @ B)
        assert np.linalg.eigvals(sys.J @ sys.H).dtype == np.float64
        grid = GridSpec(points_per_axis=9, refine_levels=0)
        reference = per_lam_distance(sys, grid)
        assert reference[0] < 1e-12 and reference[1] in np.linalg.eigvals(sys.J @ sys.H)
        assert_same_estimate(distance_to_uncontrollability(sys, grid), reference)

    def test_default_grid_matches_per_lam_reference(self):
        sys = sample_mod.sample_ph(sample_mod.SamplerSpec(Dims(2, 1), seed=43),
                                   sample_mod.stream(43, 0))
        assert_same_estimate(distance_to_uncontrollability(sys), per_lam_distance(sys))

    @pytest.mark.parametrize("per_chunk", [1, 2, 7, 24, 25, 26])
    def test_no_byte_depends_on_chunk_size(self, monkeypatch, per_chunk):
        # (2, 1) pencils have 6 entries and P^2 = 25: chunks of 25 end at
        # the scan's end, 24 leave one lam over and 26 one slot empty
        sys = sample_mod.sample_pht(
            sample_mod.SamplerSpec(Dims(2, 1), field=ScalarField.COMPLEX, seed=44),
            sample_mod.stream(44, 0))
        grid = GridSpec(points_per_axis=5, refine_levels=3)
        reference = per_lam_distance(sys, grid)
        monkeypatch.setattr(ctrb_mod, "_MINOR_CHUNK_ENTRIES", 6 * per_chunk)
        assert_same_estimate(distance_to_uncontrollability(sys, grid), reference)

    def test_svd_stacks_stay_within_the_chunk(self, monkeypatch):
        sizes = []
        svd = np.linalg.svd

        def spy(a, *args, **kwargs):
            sizes.append(np.asarray(a).size)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        est = distance_to_uncontrollability(canonical_witness(3, 1),
                                            GridSpec(points_per_axis=301, refine_levels=0))
        assert est.evaluations == 301 * 301 + 3
        assert sum(size // 12 for size in sizes) == est.evaluations
        assert max(sizes) <= ctrb_mod._MINOR_CHUNK_ENTRIES

    def test_zero_for_decoupled_input(self):
        # B = 0: the pencil is singular at any eigenvalue of JH
        sys = validate_ph(PHTSystem(
            Dims(3, 1), canonical_witness(3, 1).field,
            canonical_witness(3, 1).J, np.eye(3), np.zeros((3, 1))))
        est = distance_to_uncontrollability(sys)
        assert est.value <= 1e-8

    def test_witness_positive_and_bounded_by_grid_oracle(self):
        w = canonical_witness(2, 1)
        est = distance_to_uncontrollability(w)
        assert est.value > 1e-7
        # independent oracle: dense 200x200 scan over |Re|,|Im| <= 2
        A = w.J @ w.H
        B = w.B
        grid_min = math.inf
        for x in np.linspace(-2, 2, 200):
            for y in np.linspace(-2, 2, 200):
                pencil = np.hstack([A - complex(x, y) * np.eye(2), B])
                grid_min = min(grid_min, np.linalg.svd(pencil, compute_uv=False)[-1])
        assert est.value <= grid_min + 1e-9

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_witness_clears_tolerance(self, n):
        est = distance_to_uncontrollability(canonical_witness(n, 1))
        assert est.value > 10 * 1e-8

    def test_uncontrollable_draws_hit_zero(self):
        for i in range(5):
            sys = sample_uncontrollable(Dims(3, 1), 1, stream(920, i))
            est = distance_to_uncontrollability(sys)
            assert est.value <= 1e-8

    def test_scaling_upper_bound(self):
        w = canonical_witness(2, 1)
        d1 = distance_to_uncontrollability(w).value
        doubled = validate_ph(PHTSystem(w.dims, w.field, w.J, w.H, 2.0 * w.B))
        d2 = distance_to_uncontrollability(doubled).value
        assert d2 <= 2.0 * d1 + 1e-6

    def test_failed_pencil_svd_is_svd_failure(self, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        w = canonical_witness(2, 1)
        monkeypatch.setattr(np.linalg, "svd", no_convergence)
        with pytest.raises(SvdFailure, match="PBH pencil"):
            distance_to_uncontrollability(w)

    def test_grid_spec_gates(self):
        with pytest.raises(ValueError):
            GridSpec(points_per_axis=2)
        with pytest.raises(ValueError):
            GridSpec(refine_levels=-1)


class TestPartialMeasure:
    def test_single_interval(self):
        assert prop1_partial_measure(1) == 2.0

    def test_checkpoints_monotone_and_bounded(self):
        values = [prop1_partial_measure(10 ** k) for k in range(1, 7)]
        for a, b in zip(values, values[1:]):
            assert a < b
        for v in values:
            assert v < PI_SQUARED_THIRD + 1e-12

    def test_million_terms_close_to_limit(self):
        s = prop1_partial_measure(10 ** 6)
        assert PI_SQUARED_THIRD - 2.1e-6 < s < PI_SQUARED_THIRD

    def test_limit_constant(self):
        assert PI_SQUARED_THIRD == pytest.approx(3.2898681336964528, rel=1e-15)

    def test_i_max_gate(self):
        with pytest.raises(ValueError):
            prop1_partial_measure(0)


class TestCalkinWilf:
    def test_first_values(self):
        expected = [Fraction(*t) for t in
                    [(1, 1), (1, 2), (2, 1), (1, 3), (3, 2), (2, 3), (3, 1),
                     (1, 4), (4, 3), (3, 5), (5, 2), (2, 5), (5, 3), (3, 4),
                     (4, 1)]]
        assert [calkin_wilf(i) for i in range(1, 16)] == expected

    def test_matches_stern_diatomic_oracle(self):
        # independent recursion: s(1) = s(2) = 1, s(2i) = s(i),
        # s(2i+1) = s(i) + s(i+1); the i-th rational is s(i)/s(i+1)
        limit = 1025
        s = [0] * (2 * limit + 2)
        s[1] = 1
        for i in range(1, limit + 1):
            s[2 * i] = s[i]
            if 2 * i + 1 < len(s):
                s[2 * i + 1] = s[i] + s[i + 1]
        for i in range(1, limit):
            assert calkin_wilf(i) == Fraction(s[i], s[i + 1])

    def test_bijective_prefix(self):
        seen = {calkin_wilf(i) for i in range(1, 1024)}
        assert len(seen) == 1023

    def test_enumeration_matches_direct_indexing(self):
        iu = IntervalUnion(500)
        assert list(iu.centers()) == [calkin_wilf(i) for i in range(1, 501)]

    def test_index_gate(self):
        with pytest.raises(ValueError):
            calkin_wilf(0)


class TestMembership:
    def test_center_of_first_interval(self):
        res = prop1_membership(1.0, 1)
        assert res.covered and res.witness_index == 1

    def test_interval_seven_misses_nearby_point(self):
        # center(7) = 3 with radius 1/49; a point 2/49 away is outside that
        # interval no matter what other intervals do
        iu = IntervalUnion(100)
        assert iu.center(7) == 3
        x = Fraction(3) + Fraction(2, 49)
        assert not iu.covers(7, x)
        assert iu.covers(7, Fraction(3) + Fraction(1, 50))

    def test_point_near_three_uncovered_to_large_depth(self):
        # derived by exact scan: no interval up to 10^5 reaches 3 + 2/49
        res = prop1_membership(Fraction(3) + Fraction(2, 49), 100_000)
        assert not res.covered

    def test_enumerated_rational_is_covered(self):
        for i in (1, 2, 7, 13, 40):
            res = prop1_membership(calkin_wilf(i), max(i, 1))
            assert res.covered
            assert res.witness_index <= i

    def test_witness_certificate(self):
        iu = IntervalUnion(5000)
        for x in (0.5, 1.25, 2.75, float(Fraction(7, 5))):
            res = iu.membership(x)
            if res.covered:
                assert iu.covers(res.witness_index, x)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            prop1_membership(0.0, 10)
        with pytest.raises(ValueError):
            prop1_membership(-1.5, 10)

    def test_density_of_partial_union(self):
        # measured coverage of U(0, 3) by the first 5000 intervals is ~0.75;
        # assert a loose floor and cross-validate the exact scan against a
        # vectorized float oracle on a subsample
        i_max = 5000
        iu = IntervalUnion(i_max)
        centers = np.array([float(c) for c in iu.centers()])
        radii = 1.0 / np.arange(1, i_max + 1, dtype=float) ** 2
        rng = np.random.default_rng(31337)
        xs = rng.uniform(0.0, 3.0, 400)
        hits = np.array([bool(np.any(np.abs(x - centers) < radii)) for x in xs])
        assert hits.mean() > 0.5
        for x in xs[:25]:
            assert iu.membership(float(x)).covered == bool(
                np.any(np.abs(x - centers) < radii))


def test_stable_json_drops_wall_time():
    d = {"a": 1, "wall_time": 123.4}
    assert json.loads(stable_json(d))["wall_time"] == 0.0
