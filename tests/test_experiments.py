"""Monte Carlo studies, distance estimation, and the rational interval union."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from phctrl import core as core_mod
from phctrl import experiments as experiments_mod
from phctrl import sample as sample_mod
from phctrl.core import Dims, PHTSystem, ScalarField, validate_ph
from phctrl.ctrb import (
    DEFAULT_PBH_TOL,
    canonical_witness,
    kalman_matrix,
    pbh_check,
    rank_svd,
    resolve_rel_tol,
)
from phctrl.errors import (
    BaseNotUncontrollable,
    DegenerateDraw,
    ExperimentError,
    PhctrlError,
    SvdFailure,
)
from phctrl.experiments import (
    CHUNK,
    GridSpec,
    IntervalUnion,
    PI_SQUARED_THIRD,
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


class TestDistance:
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
