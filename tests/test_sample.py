"""Sampler determinism, structure preservation, and distribution sanity."""

import numpy as np
import pytest

import phctrl.core as core_mod
import phctrl.sample as sample_mod
from phctrl.core import (
    Dims,
    PHTSystem,
    ScalarField,
    skew_part,
    sym_part,
    validate_ph,
    validate_pht,
)
from phctrl.ctrb import kalman_matrix, rank_svd
from phctrl.errors import DegenerateDraw, NotPositiveDefinite, PerturbationFailed
from phctrl.sample import (
    PerturbationSpec,
    SamplerSpec,
    ShiftedGram,
    Wishart,
    perturb,
    perturb_rows,
    sample_ph,
    sample_ph_rows,
    sample_pht,
    sample_uncontrollable,
    stream,
    streams,
)
from phctrl.vectorize import pack


class TestSpecs:
    def test_scale_validation(self):
        with pytest.raises(ValueError):
            SamplerSpec(Dims(2, 1), j_scale=0.0)
        with pytest.raises(ValueError):
            SamplerSpec(Dims(2, 1), b_scale=-1.0)

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            SamplerSpec(Dims(2, 1), seed=-3)

    def test_wishart_p_gate(self):
        with pytest.raises(ValueError):
            SamplerSpec(Dims(3, 1), h_law=Wishart(p=2))
        SamplerSpec(Dims(3, 1), h_law=Wishart(p=3))

    def test_gram_eps_gate(self):
        with pytest.raises(ValueError):
            SamplerSpec(Dims(2, 1), h_law=ShiftedGram(eps=0.0))

    def test_perturbation_spec_gates(self):
        with pytest.raises(ValueError):
            PerturbationSpec(epsilon=-0.1)
        with pytest.raises(ValueError):
            PerturbationSpec(epsilon=0.1, max_retries=-1)
        PerturbationSpec(epsilon=0.0)


class TestDeterminism:
    def test_stream_is_stateless(self):
        a = stream(42, 7).standard_normal(5)
        b = stream(42, 7).standard_normal(5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, stream(42, 8).standard_normal(5))

    def test_identical_draws_bitwise(self):
        spec = SamplerSpec(Dims(4, 2), seed=5)
        for i in range(5):
            s1 = sample_ph(spec, stream(5, i))
            s2 = sample_ph(spec, stream(5, i))
            assert s1 == s2
            assert np.array_equal(pack(s1).coords, pack(s2).coords)

    def test_pht_and_uncontrollable_reproducible(self):
        spec = SamplerSpec(Dims(3, 2), field=ScalarField.COMPLEX, seed=6)
        assert sample_pht(spec, stream(6, 0)) == sample_pht(spec, stream(6, 0))
        u1 = sample_uncontrollable(Dims(4, 2), 2, stream(6, 1))
        u2 = sample_uncontrollable(Dims(4, 2), 2, stream(6, 1))
        assert u1 == u2

    def test_perturb_reproducible(self):
        base = sample_ph(SamplerSpec(Dims(3, 1), seed=7), stream(7, 0))
        pspec = PerturbationSpec(epsilon=1e-3)
        r1 = perturb(base, pspec, stream(7, 1))
        r2 = perturb(base, pspec, stream(7, 1))
        assert r1.system == r2.system
        assert r1.eps_used == r2.eps_used


def seed_sequence_generator(*key):
    """The oracle: numpy's own SeedSequence for the key."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))


def same_stream(rng, oracle):
    return (rng.bit_generator.state == oracle.bit_generator.state
            and rng.standard_normal(16).tobytes() == oracle.standard_normal(16).tobytes())


class TestStreams:
    """streams(seed, prefix, indices) is [stream(seed, *prefix, i) for i in
    indices], and both are Generator(PCG64(SeedSequence(key))) bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 + 5])
    @pytest.mark.parametrize("prefix", [(), (4,), (6, 2, 3)], ids=["none", "j", "n-m-k"])
    @pytest.mark.parametrize("indices", [range(0, 5), range(2**32 - 2, 2**32 + 2)],
                             ids=["from-0", "across-2^32"])
    def test_equal_seed_sequence(self, seed, prefix, indices):
        rngs = streams(seed, prefix, indices)
        assert len(rngs) == len(indices)
        for rng, i in zip(rngs, indices):
            assert same_stream(rng, seed_sequence_generator(seed, *prefix, i))
            assert same_stream(stream(seed, *prefix, i), seed_sequence_generator(seed, *prefix, i))
        assert same_stream(stream(seed, *prefix), seed_sequence_generator(seed, *prefix))

    def test_mixed_word_counts_keep_their_order(self):
        # indices of one, two and three 32-bit words hash in separate groups
        indices = [2**70, 0, 2**33 + 1, 5, 2**64, 2**32 - 1]
        rngs = streams(9, (2**40, 1), indices)
        for rng, i in zip(rngs, indices):
            assert same_stream(rng, seed_sequence_generator(9, 2**40, 1, i))

    def test_numpy_integers_accepted(self):
        rngs = streams(np.uint64(3), (np.int32(1),), np.arange(3))
        for rng, i in zip(rngs, range(3)):
            assert same_stream(rng, seed_sequence_generator(3, 1, i))

    def test_empty_range(self):
        assert streams(0, (1,), range(0)) == []

    def test_negative_seed_or_index_refused(self):
        for call in (lambda: stream(-1), lambda: stream(0, 2, -1),
                     lambda: streams(-1, (), range(2)), lambda: streams(0, (-1,), range(2)),
                     lambda: streams(0, (), [1, -1])):
            with pytest.raises(ValueError, match="must be nonnegative"):
                call()

    def test_non_integer_refused(self):
        with pytest.raises(TypeError):
            stream(0, 1.5)
        with pytest.raises(TypeError):
            streams(0, (), [0.5])


class TestSamplePhRows:
    """Row k of sample_ph_rows(spec, indices) is sample_ph(spec,
    stream(seed, indices[k])) bit for bit: one draw per row, the products
    on the stack, and per-row retries that continue the row's stream."""

    @staticmethod
    def assert_rows_equal(spec, indices, rows):
        J, H, B, degenerate = rows
        for k, i in enumerate(indices):
            try:
                lone = sample_ph(spec, stream(spec.seed, i))
            except DegenerateDraw as e:
                assert str(degenerate[k]) == str(e)
                continue
            assert k not in degenerate
            assert J[k].tobytes() == lone.J.tobytes()
            assert H[k].tobytes() == lone.H.tobytes()
            assert B[k].tobytes() == lone.B.tobytes()

    @pytest.mark.parametrize("n", range(1, 13))
    @pytest.mark.parametrize("field", list(ScalarField))
    @pytest.mark.parametrize("law", ["wishart", "wishart-p", "gram"])
    def test_rows_equal_sample_ph(self, n, field, law):
        h_law = {"wishart": Wishart(), "wishart-p": Wishart(n + 3),
                 "gram": ShiftedGram(0.5)}[law]
        spec = SamplerSpec(Dims(n, 1 + n % 3), field=field, h_law=h_law, j_scale=0.7,
                           b_scale=1.5, seed=600 + n)
        indices = range(3, 12)
        rows = sample_ph_rows(spec, indices)
        assert not rows[3]
        self.assert_rows_equal(spec, indices, rows)

    @pytest.mark.parametrize("field", list(ScalarField))
    def test_forced_retries(self, monkeypatch, field):
        # a raised floor rejects about half the first attempts and, for a
        # few rows, every attempt; both paths read the same gate
        gate = core_mod.pd_gate
        rejections = []

        def raised_floor(H, delta=None):
            smallest, delta, rejected = gate(H, delta)
            rejected = rejected | (smallest < 0.3)
            rejections.append(int(np.count_nonzero(rejected)))
            return smallest, delta, rejected

        monkeypatch.setattr(core_mod, "pd_gate", raised_floor)
        monkeypatch.setattr(sample_mod, "pd_gate", raised_floor)
        spec = SamplerSpec(Dims(2, 1), field=field, seed=620)
        indices = range(60)
        rows = sample_ph_rows(spec, indices)
        assert rejections[0] > 0 and len(rejections) > 1
        assert rows[3]  # some row ran out of attempts
        self.assert_rows_equal(spec, indices, rows)


class TestStructurePreservation:
    @pytest.mark.parametrize("field", list(ScalarField))
    def test_outputs_pass_strict_validation(self, field):
        spec = SamplerSpec(Dims(4, 2), field=field, seed=13)
        gram_spec = SamplerSpec(Dims(4, 2), field=field,
                                h_law=ShiftedGram(eps=0.5), seed=13)
        for i in range(50):
            for s in (
                sample_pht(spec, stream(13, i)),
                sample_ph(spec, stream(13, i)),
                sample_ph(gram_spec, stream(13, i)),
                sample_uncontrollable(Dims(4, 2), 2, stream(13, i), field),
            ):
                validate_pht(s.J, s.H, s.B, tol=0.0, field=field)

    def test_ph_outputs_positive_definite(self):
        spec = SamplerSpec(Dims(3, 1), h_law=Wishart(p=3), seed=100)
        for i in range(10_000):
            s = sample_ph(spec, stream(100, i))
            assert s.pd_margin > 0.0

    def test_shifted_gram_floor(self):
        spec = SamplerSpec(Dims(3, 1), h_law=ShiftedGram(eps=1.0), seed=101)
        for i in range(1000):
            s = sample_ph(spec, stream(101, i))
            assert s.pd_margin >= 1.0 - 1e-9


class TestDistribution:
    def test_real_coordinate_variances(self):
        # packed coordinates of a (2, 1) draw, in order:
        #   J01, H00, H01, H11, B00, B10
        # symmetrizing an iid Gaussian halves the off-diagonal variances
        j_scale, b_scale = 0.7, 1.3
        spec = SamplerSpec(Dims(2, 1), j_scale=j_scale, b_scale=b_scale, seed=202)
        draws = np.empty((100_000, 6))
        for i in range(draws.shape[0]):
            draws[i] = pack(sample_pht(spec, stream(202, i))).coords
        law = np.array([
            j_scale ** 2 / 2, 1.0, 0.5, 1.0, b_scale ** 2, b_scale ** 2,
        ])
        sample_var = draws.var(axis=0)
        assert np.all(np.abs(sample_var - law) <= 0.1 * law)

    def test_complex_coordinate_variances(self):
        # packed coordinates of a complex (2, 1) draw:
        #   Im J00, Re J01, Im J01, Im J11, Re H00, Re H01, Im H01, Re H11,
        #   then (re, im) pairs of B
        spec = SamplerSpec(Dims(2, 1), field=ScalarField.COMPLEX, seed=203)
        draws = np.empty((40_000, 12))
        for i in range(draws.shape[0]):
            draws[i] = pack(sample_pht(spec, stream(203, i))).coords
        law = np.array([1.0, 0.5, 0.5, 1.0, 1.0, 0.5, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0])
        sample_var = draws.var(axis=0)
        assert np.all(np.abs(sample_var - law) <= 0.1 * law)

    def test_coordinate_means_within_clt_band(self):
        # 5-sigma CLT band per coordinate over 10^4 draws
        spec = SamplerSpec(Dims(2, 1), seed=204)
        draws = np.empty((10_000, 6))
        for i in range(draws.shape[0]):
            draws[i] = pack(sample_pht(spec, stream(204, i))).coords
        stds = np.sqrt([0.5, 1.0, 0.5, 1.0, 1.0, 1.0])
        bound = 5.0 * stds / np.sqrt(draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0)) <= bound)


class TestUncontrollable:
    def test_k_range_validation(self):
        with pytest.raises(ValueError):
            sample_uncontrollable(Dims(3, 1), 0, stream(0))
        with pytest.raises(ValueError):
            sample_uncontrollable(Dims(3, 1), 3, stream(0))

    def test_negative_control_all_sizes(self):
        for n in range(2, 9):
            for k in range(1, n):
                for draw in range(200):
                    s = sample_uncontrollable(Dims(n, 1), k, stream(300, n, k, draw))
                    report = rank_svd(kalman_matrix(s))
                    assert not report.controllable
                    assert report.rank <= n - k

    def test_negative_control_multi_input(self):
        for n in (2, 3, 4):
            for k in range(1, n):
                for draw in range(50):
                    s = sample_uncontrollable(Dims(n, 2), k, stream(301, n, k, draw))
                    assert rank_svd(kalman_matrix(s)).rank <= n - k

    def test_block_structure(self):
        s = sample_uncontrollable(Dims(5, 2), 2, stream(302))
        assert not s.J[:3, 3:].any() and not s.J[3:, :3].any()
        assert not s.H[:3, 3:].any() and not s.H[3:, :3].any()
        assert not s.B[3:, :].any()
        assert s.pd_margin > 0.0


class TestPerturb:
    def test_zero_step_identity(self):
        base = sample_ph(SamplerSpec(Dims(3, 2), seed=400), stream(400, 0))
        result = perturb(base, PerturbationSpec(epsilon=0.0), stream(400, 1))
        assert result.system == base
        assert result.eps_used == 0.0

    def test_small_step_never_halves(self):
        # a step below pd_margin keeps H positive definite outright
        # (eigenvalues move by at most the step size)
        spec = SamplerSpec(Dims(3, 1), seed=401)
        for i in range(50):
            base = sample_ph(spec, stream(401, i))
            eps = 0.5 * base.pd_margin
            result = perturb(base, PerturbationSpec(epsilon=eps), stream(401, 1000 + i))
            assert result.halvings == 0
            assert result.eps_used == eps

    def test_large_step_halves_until_pd(self):
        result = perturb(NEAR_SINGULAR, PerturbationSpec(epsilon=1.0), stream(402))
        assert result.halvings > 0
        assert result.eps_used < 1e-4
        assert result.system.pd_margin > 0.0

    def test_retry_exhaustion(self):
        # stream(410) yields an indefinite direction, so a huge step with no
        # retries cannot stay in the cone
        base = validate_ph(validate_pht(
            [[0.0, -1.0], [1.0, 0.0]], np.eye(2) * 1e-10, [[1.0], [0.0]]))
        with pytest.raises(PerturbationFailed):
            perturb(base, PerturbationSpec(epsilon=10.0, max_retries=0), stream(410))

    def test_infinite_candidate_never_passes(self):
        # a step to about 1.7e308 overflows H to Inf; its NaN eigenvalue
        # must fail the gate, never pass with pd_margin NaN
        base = validate_ph(PHTSystem(Dims(2, 1), ScalarField.REAL, np.zeros((2, 2)),
                                     5e307 * np.eye(2), np.ones((2, 1))))
        spec = PerturbationSpec(1.7e308, max_retries=0)
        failed = 0
        for t in range(8):
            with np.errstate(over="ignore", invalid="ignore"):
                try:
                    result = perturb(base, spec, stream(1, t))
                except PerturbationFailed:
                    failed += 1
                    continue
            assert np.isfinite(result.system.H).all()
            assert not np.isnan(result.system.pd_margin)
        assert failed > 0

    def test_escapes_uncontrollable_set(self):
        # arbitrarily small structured steps restore controllability
        base = sample_uncontrollable(Dims(2, 1), 1, stream(404))
        assert not rank_svd(kalman_matrix(base)).controllable
        pspec = PerturbationSpec(epsilon=1e-6)
        for t in range(1000):
            moved = perturb(base, pspec, stream(405, t)).system
            assert rank_svd(kalman_matrix(moved)).controllable

    def test_moderate_step_escapes_too(self):
        base = sample_uncontrollable(Dims(2, 1), 1, stream(406))
        pspec = PerturbationSpec(epsilon=0.1)
        hits = sum(
            rank_svd(kalman_matrix(perturb(base, pspec, stream(407, t)).system)).controllable
            for t in range(200)
        )
        assert hits == 200


def perturb_one_at_a_time(sys, spec, rng):
    """Reference: the perturbation as a per-system halving loop, each
    candidate built as a PHTSystem and certified by validate_ph."""
    if spec.epsilon == 0.0:
        return sys, 0.0, 0
    n, m = sys.dims.n, sys.dims.m
    DJ = spec.j_scale * skew_part(sample_mod._gauss(rng, (n, n), sys.field))
    DH = spec.h_scale * sym_part(sample_mod._gauss(rng, (n, n), sys.field))
    DB = spec.b_scale * sample_mod._gauss(rng, (n, m), sys.field)
    norm = np.sqrt(np.linalg.norm(DJ) ** 2 + np.linalg.norm(DH) ** 2 + np.linalg.norm(DB) ** 2)
    norm = float(norm) or 1.0
    eps = spec.epsilon
    for halvings in range(spec.max_retries + 1):
        candidate = PHTSystem(sys.dims, sys.field, sys.J + eps * (DJ / norm),
                              sys.H + eps * (DH / norm), sys.B + eps * (DB / norm))
        try:
            return validate_ph(candidate), eps, halvings
        except NotPositiveDefinite:
            eps /= 2.0
    raise PerturbationFailed(spec.epsilon, spec.max_retries)


def result_bytes(system, eps_used, halvings):
    return (system.J.tobytes(), system.H.tobytes(), system.B.tobytes(),
            np.float64(system.pd_margin).tobytes(), np.float64(eps_used).tobytes(), halvings)


# H = 1e-6 I: a unit step halves many times before H stays positive definite
NEAR_SINGULAR = validate_ph(validate_pht(
    [[0.0, -1.0], [1.0, 0.0]], np.eye(2) * 1e-6, [[1.0], [0.0]]))


def perturb_bases():
    yield NEAR_SINGULAR
    for field in ScalarField:
        for i, (n, m) in enumerate([(1, 1), (3, 2), (5, 1)]):
            yield sample_ph(SamplerSpec(Dims(n, m), field=field, seed=420 + i),
                            stream(420 + i, 0))
        yield sample_uncontrollable(Dims(4, 2), 2, stream(423), field=field)


class TestPerturbRows:
    """perturb_rows row r is perturb(base, spec, rngs[r]) bit for bit, and
    perturb keeps the bytes of the per-system halving loop."""

    @pytest.mark.parametrize("eps,retries", [(0.0, 40), (1e-3, 40), (1.0, 40), (30.0, 60),
                                             (10.0, 2), (100.0, 0)])
    def test_perturb_matches_one_at_a_time(self, eps, retries):
        spec = PerturbationSpec(epsilon=eps, max_retries=retries)
        outcomes = set()
        for b, base in enumerate(perturb_bases()):
            for t in range(6):
                try:
                    expected = result_bytes(
                        *perturb_one_at_a_time(base, spec, stream(430, b, t)))
                except PerturbationFailed as e:
                    with pytest.raises(PerturbationFailed) as got:
                        perturb(base, spec, stream(430, b, t))
                    assert str(got.value) == str(e)
                    outcomes.add("failed")
                    continue
                result = perturb(base, spec, stream(430, b, t))
                assert result.eps_requested == eps
                assert result_bytes(result.system, result.eps_used, result.halvings) == expected
                outcomes.add(result.halvings > 0)
        if eps >= 1.0:  # some bases halve, or run out of halvings
            assert (True if retries else "failed") in outcomes

    @pytest.mark.parametrize("eps,retries", [(1e-3, 40), (1.0, 40), (10.0, 2), (100.0, 0)])
    @pytest.mark.parametrize("rows", [1, 5, 17])
    def test_rows_equal_lone_perturbations(self, eps, retries, rows):
        spec = PerturbationSpec(epsilon=eps, max_retries=retries)
        for b, base in enumerate(perturb_bases()):
            moved = perturb_rows(base, spec, [stream(440, b, r) for r in range(rows)])
            failed = []
            for r in range(rows):
                try:
                    lone = perturb(base, spec, stream(440, b, r))
                except PerturbationFailed:
                    failed.append(r)
                    assert moved.halvings[r] == retries
                    continue
                assert moved.J[r].tobytes() == lone.system.J.tobytes()
                assert moved.H[r].tobytes() == lone.system.H.tobytes()
                assert moved.B[r].tobytes() == lone.system.B.tobytes()
                assert moved.pd_margin[r] == lone.system.pd_margin
                assert moved.eps_used[r] == lone.eps_used
                assert moved.halvings[r] == lone.halvings
            assert moved.failed == (failed[0] if failed else None)

    def test_halving_rows_keep_their_own_step(self):
        # on the near-singular base some rows halve and others do not
        spec = PerturbationSpec(epsilon=4e-6)
        moved = perturb_rows(NEAR_SINGULAR, spec, [stream(450, r) for r in range(40)])
        assert 0 < np.count_nonzero(moved.halvings) < 40
        assert np.array_equal(moved.eps_used, 4e-6 / 2.0 ** moved.halvings)
        assert (moved.pd_margin > 0).all()
        assert moved.failed is None

    def test_zero_step_draws_nothing(self):
        base = sample_ph(SamplerSpec(Dims(3, 2), seed=451), stream(451, 0))
        rngs = [stream(451, r) for r in range(3)]
        moved = perturb_rows(base, PerturbationSpec(epsilon=0.0), rngs)
        for r in range(3):
            assert np.array_equal(moved.J[r], base.J) and np.array_equal(moved.B[r], base.B)
            assert moved.pd_margin[r] == base.pd_margin
        assert moved.eps_used.tolist() == [0.0] * 3 and moved.halvings.tolist() == [0] * 3
        assert [rng.standard_normal() for rng in rngs] == \
            [stream(451, r).standard_normal() for r in range(3)]


class TestDegenerateDraw:
    def test_raised_after_retries(self, monkeypatch):
        # force every H draw to be indefinite; the sampler must give up with
        # the diagnostic error rather than loop forever
        monkeypatch.setattr(
            sample_mod, "_draw_h",
            lambda spec, rng, n: -np.eye(n),
        )
        spec = SamplerSpec(Dims(2, 1), seed=500)
        with pytest.raises(DegenerateDraw) as exc:
            sample_ph(spec, stream(500, 0))
        assert exc.value.smallest_eigenvalue == pytest.approx(-1.0)

    @pytest.mark.parametrize("draw", ["ph", "uncontrollable"])
    def test_every_attempt_goes_through_validate_ph(self, monkeypatch, draw):
        # both PD-gated samplers certify each attempt with the module's
        # validate_ph and give up after MAX_PD_RETRIES attempts
        calls = []

        def refuse(sys, delta=None):
            calls.append(sys)
            raise NotPositiveDefinite(-2.0, 1e-12)

        monkeypatch.setattr(sample_mod, "validate_ph", refuse)
        rng = stream(501, 0)
        with pytest.raises(DegenerateDraw) as exc:
            if draw == "ph":
                sample_ph(SamplerSpec(Dims(3, 1), seed=501), rng)
            else:
                sample_uncontrollable(Dims(3, 1), 1, rng)
        assert len(calls) == sample_mod.MAX_PD_RETRIES
        assert len({id(s) for s in calls}) == sample_mod.MAX_PD_RETRIES
        assert exc.value.smallest_eigenvalue == -2.0
