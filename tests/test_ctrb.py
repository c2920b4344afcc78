"""Controllability certificates: reachability matrix, rank, staircase,
minors, PBH."""

import itertools

import numpy as np
import pytest

from phctrl import ctrb
from phctrl.core import Dims, PHTSystem, ScalarField, system_matrix, validate_pht
from phctrl.ctrb import (
    DEFAULT_PBH_TOL,
    KalmanMatrix,
    canonical_witness,
    kalman_matrix,
    minors_order_n,
    pbh_check,
    pencil_smin,
    rank_svd,
    staircase_rank,
)
from phctrl.errors import CombinatorialBlowup, PhctrlError, SvdFailure, ToleranceOutOfRange
from phctrl.sample import (
    SamplerSpec,
    sample_ph,
    sample_pht,
    sample_uncontrollable,
    stream,
)

EPS = float(np.finfo(np.float64).eps)


def system_of(J, H, B):
    return validate_pht(J, H, B, tol=0.0)


def per_subset_minors(K, dims):
    """Reference: one determinant per column subset, in lexicographic order."""
    subsets = itertools.combinations(range(dims.n * dims.m), dims.n)
    return np.array([np.linalg.det(K[:, list(cols)]) for cols in subsets], dtype=K.dtype)


def per_lam_smin(A, B, lams):
    """Reference: one pencil SVD per lam, lam keeping its own type."""
    eye = np.eye(A.shape[0])
    return np.array([np.linalg.svd(np.hstack([A - lam * eye, B]), compute_uv=False)[-1]
                     for lam in lams])


def per_lam_pbh(sys, tol=DEFAULT_PBH_TOL):
    """Reference: the PBH verdict as a short-circuiting loop over eigvals."""
    A, B = system_matrix(sys), sys.B
    threshold = tol * float(np.linalg.norm(A, 2) + np.linalg.norm(B, 2))
    return all(per_lam_smin(A, B, [lam])[0] > threshold for lam in np.linalg.eigvals(A))


def assert_same_bytes(got, expected):
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert np.array_equal(got.view(np.uint8), expected.view(np.uint8))


class TestKalmanMatrix:
    def test_witness_n2(self):
        K = kalman_matrix(canonical_witness(2, 1))
        assert K.K.tolist() == [[1.0, 0.0], [0.0, 1.0]]

    def test_zero_b(self):
        sys = system_of([[0.0, -1.0], [1.0, 0.0]], np.eye(2), [[0.0], [0.0]])
        assert not kalman_matrix(sys).K.any()

    def test_hand_example(self):
        # JH = [[0,-3],[2,0]], so JHB = (0, 2)^T for B = e1
        sys = system_of([[0.0, -1.0], [1.0, 0.0]], [[2.0, 0.0], [0.0, 3.0]],
                        [[1.0], [0.0]])
        assert kalman_matrix(sys).K.tolist() == [[1.0, 0.0], [0.0, 2.0]]

    def test_block_recurrence(self):
        spec = SamplerSpec(Dims(5, 2), seed=31)
        for i in range(20):
            sys = sample_ph(spec, stream(31, i))
            K = kalman_matrix(sys).K
            A = system_matrix(sys)
            m = sys.dims.m
            for j in range(1, sys.dims.n):
                expected = A @ K[:, (j - 1) * m:j * m]
                got = K[:, j * m:(j + 1) * m]
                scale = max(1.0, float(np.max(np.abs(expected))))
                assert np.max(np.abs(got - expected)) <= 1e-12 * scale

    def test_shape_and_dtype(self):
        spec = SamplerSpec(Dims(3, 2), field=ScalarField.COMPLEX, seed=4)
        K = kalman_matrix(sample_pht(spec, stream(4, 0)))
        assert K.K.shape == (3, 6)
        assert K.K.dtype == np.complex128


class TestRankSvd:
    def test_identity(self):
        report = rank_svd(KalmanMatrix(np.eye(2), Dims(2, 1)))
        assert report.rank == 2 and report.controllable

    def test_zero_matrix(self):
        report = rank_svd(KalmanMatrix(np.zeros((2, 2)), Dims(2, 1)))
        assert report.rank == 0
        assert not report.controllable
        assert report.tol_used == 1e-300

    def test_tiny_singular_value_below_default_tol(self):
        K = KalmanMatrix(np.diag([1.0, 1e-18]), Dims(2, 1))
        report = rank_svd(K)
        assert report.rank == 1
        assert report.tol_used == pytest.approx(2 * EPS, rel=1e-12)
        assert not report.controllable

    def test_explicit_rel_tol(self):
        K = KalmanMatrix(np.diag([1.0, 1e-6]), Dims(2, 1))
        assert rank_svd(K, rel_tol=1e-8).rank == 2
        assert rank_svd(K, rel_tol=1e-4).rank == 1

    def test_singular_values_descending(self):
        spec = SamplerSpec(Dims(4, 2), seed=9)
        report = rank_svd(kalman_matrix(sample_ph(spec, stream(9, 0))))
        sv = report.singular_values
        assert all(a >= b for a, b in zip(sv, sv[1:]))
        assert len(sv) == 4

    def test_rel_tol_must_be_positive(self):
        with pytest.raises(ValueError):
            rank_svd(KalmanMatrix(np.eye(2), Dims(2, 1)), rel_tol=0.0)

    def test_nan_rel_tol_rejected(self):
        # a NaN threshold would count no singular value and call every
        # system uncontrollable
        with pytest.raises(ValueError):
            rank_svd(KalmanMatrix(np.eye(2), Dims(2, 1)), rel_tol=float("nan"))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_entries_refused(self, bad):
        K = np.eye(2)
        K[1, 1] = bad
        with pytest.raises(SvdFailure, match="overflow"):
            rank_svd(KalmanMatrix(K, Dims(2, 1)))

    def test_krylov_overflow_is_silent(self):
        # the recurrence leaves Inf/NaN in K without a RuntimeWarning;
        # singular_values names it
        A = 1e200 * system_matrix(canonical_witness(3, 1))
        with np.errstate(all="raise"):
            K = ctrb.krylov_blocks(A, np.array([[1.0], [0.0], [0.0]]))
            assert not np.isfinite(K).all()
            with pytest.raises(SvdFailure, match="non-finite"):
                ctrb.singular_values(K)


class TestStaircase:
    def test_zero_b(self):
        sys = system_of([[0.0, -1.0], [1.0, 0.0]], np.eye(2), [[0.0], [0.0]])
        report = staircase_rank(sys)
        assert report.rank == 0
        assert report.margin == 0.0
        assert not report.controllable

    def test_threshold_is_pbh_convention(self):
        spec = SamplerSpec(Dims(4, 2), seed=12)
        sys = sample_ph(spec, stream(12, 0))
        expected = DEFAULT_PBH_TOL * (np.linalg.norm(system_matrix(sys), 2)
                                      + np.linalg.norm(sys.B, 2))
        assert staircase_rank(sys).tol_used == pytest.approx(expected, rel=1e-12)

    def test_dependent_input_columns(self):
        # drift-free: the rank is the rank of B, here 1 from three columns
        b = np.array([[1.0], [-2.0], [0.5]])
        sys = system_of(np.zeros((3, 3)), np.eye(3), np.hstack([b, 2.0 * b, -b]))
        assert staircase_rank(sys).rank == 1
        # the witness drift reaches everything from any nonzero copy of e1
        w = canonical_witness(4, 1)
        B = np.hstack([w.B, 3.0 * w.B, -w.B])
        report = staircase_rank(system_of(w.J, w.H, B))
        assert report.rank == 4 and report.controllable

    @pytest.mark.parametrize("field", list(ScalarField))
    def test_uncontrollable_rank_exact(self, field):
        # the reachable subspace is exactly the leading n - k coordinates
        for n in range(2, 7):
            for m in (1, 2, 3):
                for k in range(1, n):
                    for i in range(3):
                        sys = sample_uncontrollable(Dims(n, m), k,
                                                    stream(901, n, m, k, i),
                                                    field=field)
                        assert staircase_rank(sys).rank == n - k, (n, m, k, i)

    @pytest.mark.parametrize("field", list(ScalarField))
    def test_agrees_with_pbh(self, field):
        # indefinite H included: sample_pht draws need not be port-Hamiltonian
        for n in range(1, 7):
            for m in (1, 2, 3):
                spec = SamplerSpec(Dims(n, m), field=field, seed=910 + 10 * n + m)
                for i in range(10):
                    sys = sample_pht(spec, stream(spec.seed, i))
                    assert staircase_rank(sys).controllable == pbh_check(sys), (n, m, i)


class TestMinors:
    def test_witness_single_minor(self):
        ms = minors_order_n(kalman_matrix(canonical_witness(2, 1)))
        assert ms.q == 1
        assert ms.values.tolist() == [1.0]
        assert ms.controllable()

    def test_zero_b_all_minors_vanish(self):
        sys = system_of(np.zeros((2, 2)), np.eye(2), np.zeros((2, 2)))
        ms = minors_order_n(kalman_matrix(sys))
        assert ms.q == 6
        assert not ms.values.any()
        assert not ms.controllable()

    def test_lexicographic_subset_order(self):
        K = KalmanMatrix(np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]),
                         Dims(2, 2))
        ms = minors_order_n(K)
        assert ms.values.tolist() == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]

    def test_cap_refusal(self):
        # C(30, 6) = 593775 exceeds the default cap
        K = kalman_matrix(canonical_witness(6, 5))
        with pytest.raises(CombinatorialBlowup) as exc:
            minors_order_n(K)
        assert exc.value.q == 593775
        assert exc.value.cap == 200_000
        assert minors_order_n(K, cap=600_000).q == 593775

    @pytest.mark.parametrize("make", [
        pytest.param(lambda: canonical_witness(3, 1), id="witness-q1"),
        pytest.param(lambda: sample_ph(SamplerSpec(Dims(4, 1), seed=8), stream(8, 0)),
                     id="ph-q1"),
        pytest.param(lambda: sample_ph(SamplerSpec(Dims(3, 2), seed=8), stream(8, 1)),
                     id="ph-one-chunk"),
        pytest.param(lambda: sample_pht(SamplerSpec(Dims(4, 3), field=ScalarField.COMPLEX,
                                                    seed=8), stream(8, 2)),
                     id="pht-complex-one-chunk"),
        pytest.param(lambda: sample_pht(SamplerSpec(Dims(5, 4), seed=8), stream(8, 3)),
                     id="pht-real-many-chunks"),
        pytest.param(lambda: sample_ph(SamplerSpec(Dims(4, 5), field=ScalarField.COMPLEX,
                                                   seed=8), stream(8, 4)),
                     id="ph-complex-many-chunks"),
        pytest.param(lambda: sample_ph(SamplerSpec(Dims(6, 3), seed=8), stream(8, 5)),
                     id="ph-real-n6-many-chunks"),
    ])
    def test_matches_per_subset_reference(self, make):
        kal = kalman_matrix(make())
        assert not kal.K.flags.writeable
        ms = minors_order_n(kal)
        assert_same_bytes(ms.values, per_subset_minors(kal.K, kal.dims))
        assert ms.spectral_norm == np.linalg.norm(kal.K, 2)

    @pytest.mark.parametrize("entries", [
        1,            # one matrix per chunk
        9 * 42,       # two full chunks
        9 * 83,       # one full chunk and a chunk of one
        9 * 84,       # q exactly one chunk
        9 * 85,       # one chunk larger than q
    ])
    def test_no_value_depends_on_chunk_size(self, monkeypatch, entries):
        # (3, 3): q = C(9, 3) = 84 minors of 9 entries each
        kal = kalman_matrix(sample_pht(SamplerSpec(Dims(3, 3), field=ScalarField.COMPLEX,
                                                   seed=9), stream(9, 0)))
        monkeypatch.setattr(ctrb, "_MINOR_CHUNK_ENTRIES", entries)
        assert_same_bytes(minors_order_n(kal).values, per_subset_minors(kal.K, kal.dims))

    def test_cap_checked_before_any_determinant(self, monkeypatch):
        def no_det(a):
            raise AssertionError("determinant taken before the cap check")

        monkeypatch.setattr(np.linalg, "det", no_det)
        with pytest.raises(CombinatorialBlowup):
            minors_order_n(kalman_matrix(canonical_witness(6, 5)))

    def test_overflowed_kalman_matrix_refused(self, monkeypatch, capfd):
        # J scaled by 1e200 overflows the Krylov recurrence to Inf; a
        # determinant of it would give a NaN minor and a verdict from NaN
        w = canonical_witness(3, 1)
        kal = kalman_matrix(validate_pht(1e200 * w.J, w.H, w.B))

        def no_det(a):
            raise AssertionError("determinant taken of a non-finite matrix")

        monkeypatch.setattr(np.linalg, "det", no_det)
        with pytest.raises(SvdFailure, match="overflow"):
            minors_order_n(kal)
        assert "DLASCL" not in capfd.readouterr().err

    @pytest.mark.parametrize("rel_tol", [float("nan"), -1.0])
    def test_nan_or_negative_rel_tol_rejected(self, rel_tol):
        ms = minors_order_n(kalman_matrix(canonical_witness(3, 1)))
        with pytest.raises(ValueError):
            ms.controllable(rel_tol=rel_tol)

    def test_zero_rel_tol_is_exact_criterion(self):
        sys = system_of(np.zeros((2, 2)), np.eye(2), np.zeros((2, 2)))
        assert not minors_order_n(kalman_matrix(sys)).controllable(rel_tol=0.0)
        assert minors_order_n(kalman_matrix(canonical_witness(3, 1))).controllable(rel_tol=0.0)

    @pytest.mark.parametrize("n", [40, 50])
    def test_tolerance_beyond_double_range_refused(self, n):
        # ||K||_2^n of the witness overflows; no verdict, and no bare
        # OverflowError either
        ms = minors_order_n(kalman_matrix(canonical_witness(n, 1)))
        assert ms.q == 1
        with pytest.raises(ToleranceOutOfRange, match="leaves the double range"):
            ms.controllable()
        assert issubclass(ToleranceOutOfRange, PhctrlError)
        # the exact criterion needs no tolerance: det K = +-1
        assert ms.controllable(rel_tol=0.0)

    def test_verdict_scale_invariance(self):
        spec = SamplerSpec(Dims(3, 1), seed=14)
        for i in range(20):
            K = kalman_matrix(sample_ph(spec, stream(14, i))).K
            for scale in (1e-6, 1.0, 1e6):
                ms = minors_order_n(KalmanMatrix(scale * K, Dims(3, 1)))
                assert ms.controllable()


class TestPbh:
    def test_witness(self):
        assert pbh_check(canonical_witness(2, 1))

    def test_witness_margin_direct(self):
        # independent evaluation of the pencil at the eigenvalues +-i of J
        w = canonical_witness(2, 1)
        for lam in (1j, -1j):
            pencil = np.hstack([w.J @ w.H - lam * np.eye(2), w.B])
            smin = np.linalg.svd(pencil, compute_uv=False)[-1]
            assert smin > 1e-2

    def test_zero_b(self):
        sys = system_of([[0.0, -1.0], [1.0, 0.0]], np.eye(2), [[0.0], [0.0]])
        assert not pbh_check(sys)

    @pytest.mark.parametrize("tol", [float("nan"), -1.0])
    def test_nan_or_negative_tol_rejected(self, tol):
        with pytest.raises(ValueError):
            pbh_check(canonical_witness(3, 1), tol)

    def test_zero_tol_is_legal(self):
        assert pbh_check(canonical_witness(3, 1), 0.0)
        assert not pbh_check(system_of(np.zeros((2, 2)), np.eye(2), np.zeros((2, 1))), 0.0)

    @staticmethod
    def reference_systems():
        systems = [canonical_witness(n, m) for n in (1, 2, 7, 30, 50) for m in (1, 3)]
        for field in ScalarField:
            for i in range(6):
                spec = SamplerSpec(Dims(2 + i, 1 + i % 3), field=field, seed=31)
                systems.append(sample_ph(spec, stream(31, i)))
                systems.append(sample_pht(spec, stream(32, i)))
                systems.append(sample_uncontrollable(Dims(4, 2), 1 + i % 3, stream(33, i),
                                                     field=field))
        systems.append(system_of(np.zeros((3, 3)), np.eye(3), np.zeros((3, 1))))
        return systems

    def test_matches_per_lam_reference(self):
        # the stacked pencils keep each lam's dtype: real eigvals give real
        # pencils, so every sigma is the one a single SVD gives
        real_eigvals = 0
        for sys in self.reference_systems():
            A = system_matrix(sys)
            lams = np.linalg.eigvals(A)
            real_eigvals += lams.dtype == np.float64
            assert_same_bytes(pencil_smin(A, sys.B, lams), per_lam_smin(A, sys.B, lams))
            assert pbh_check(sys) == per_lam_pbh(sys)
            assert pbh_check(sys, 0.0) == per_lam_pbh(sys, 0.0)
        assert real_eigvals > 0

    @pytest.mark.parametrize("entries", [1, 30 * 2, 30 * 3, 30 * 4])
    def test_no_sigma_depends_on_chunk_size(self, monkeypatch, entries):
        # (5, 1) pencils have 30 entries; 7 lam fall in 7, 4, 3 and 2 chunks
        sys = sample_pht(SamplerSpec(Dims(5, 1), field=ScalarField.COMPLEX, seed=34),
                         stream(34, 0))
        A = system_matrix(sys)
        lams = np.concatenate([np.linalg.eigvals(A), [0.5j, -1.0]])
        expected = per_lam_smin(A, sys.B, lams)
        monkeypatch.setattr(ctrb, "_MINOR_CHUNK_ENTRIES", entries)
        assert_same_bytes(pencil_smin(A, sys.B, lams), expected)

    def test_matches_rank_on_random_systems(self):
        spec = SamplerSpec(Dims(3, 2), seed=77)
        for i in range(100):
            sys = sample_ph(spec, stream(77, i))
            assert pbh_check(sys) == rank_svd(kalman_matrix(sys)).controllable


class TestCanonicalWitness:
    def test_n2_m1_structure(self):
        w = canonical_witness(2, 1)
        assert w.J.tolist() == [[0.0, -1.0], [1.0, 0.0]]
        assert np.array_equal(w.H, np.eye(2))
        assert w.B.tolist() == [[1.0], [0.0]]
        assert rank_svd(kalman_matrix(w)).rank == 2

    def test_n1_m3(self):
        w = canonical_witness(1, 3)
        assert w.J.tolist() == [[0.0]]
        assert w.H.tolist() == [[1.0]]
        assert w.B.tolist() == [[1.0, 0.0, 0.0]]
        assert rank_svd(kalman_matrix(w)).rank == 1

    def test_n4_m2(self):
        assert rank_svd(kalman_matrix(canonical_witness(4, 2))).rank == 4

    @pytest.mark.parametrize("m", [1, 3, 5])
    def test_rank_totality_small_n(self, m):
        # numerically safe region of the SVD route; the reachability matrix
        # conditions like 3.24^n, so the default threshold holds to n ~ 30
        for n in range(1, 21):
            report = rank_svd(kalman_matrix(canonical_witness(n, m)))
            assert report.rank == n, (n, m, report.rank)

    @pytest.mark.parametrize("m", [1, 5])
    def test_pbh_totality_full_range(self, m):
        # the eigenvector certificate covers the whole range
        for n in range(1, 51):
            assert pbh_check(canonical_witness(n, m)), (n, m)

    @pytest.mark.parametrize("m", [1, 5])
    def test_staircase_totality_full_range(self, m):
        # the staircase basis of the witness is e1, ..., en, each accepted
        # with singular value exactly 1
        for n in range(1, 51):
            report = staircase_rank(canonical_witness(n, m))
            assert report.rank == n, (n, m, report.rank)
            assert report.margin == 1.0

    def test_svd_rank_saturates_beyond_n32(self):
        # documented limitation: at n = 50 the witness reachability matrix has
        # condition ~1e23, far beyond 1/eps, and the SVD route must fail while
        # PBH still certifies
        w = canonical_witness(50, 1)
        assert rank_svd(kalman_matrix(w)).rank < 50
        assert pbh_check(w)


class TestOracleAgreement:
    def adversarial_systems(self):
        systems = []
        for n in (2, 3):
            for m in (1, 2):
                systems.append(canonical_witness(n, m))
                for k in range(1, n):
                    for draw in range(25):
                        systems.append(sample_uncontrollable(
                            Dims(n, m), k, stream(555, n, m, k, draw)))
                # decoupled input: B = 0
                systems.append(system_of(
                    np.zeros((n, n)), np.eye(n), np.zeros((n, m))))
                # drift-free: JH = 0, controllable iff B has full row rank
                rng = stream(556, n, m)
                systems.append(system_of(
                    np.zeros((n, n)), np.eye(n), rng.standard_normal((n, m))))
        return systems

    def verdicts(self, sys):
        K = kalman_matrix(sys)
        return (
            rank_svd(K).controllable,
            minors_order_n(K).controllable(),
            pbh_check(sys),
        )

    def test_three_way_agreement(self):
        checked = 0
        for n in (1, 2, 3):
            for m in (1, 2):
                spec = SamplerSpec(Dims(n, m), seed=600 + 10 * n + m)
                for i in range(70):
                    sys = sample_ph(spec, stream(spec.seed, i))
                    a, b, c = self.verdicts(sys)
                    assert a == b == c, (n, m, i)
                    checked += 1
                pht_spec = SamplerSpec(Dims(n, m), seed=700 + 10 * n + m)
                for i in range(15):
                    sys = sample_pht(pht_spec, stream(pht_spec.seed, i))
                    a, b, c = self.verdicts(sys)
                    assert a == b == c, ("pht", n, m, i)
                    checked += 1
        assert checked >= 500
        for sys in self.adversarial_systems():
            a, b, c = self.verdicts(sys)
            assert a == b == c


class TestSimilarityInvariance:
    def test_input_mixing_preserves_verdict(self):
        # B Q for invertible Q spans the same input space, so the rank verdict
        # cannot move
        spec = SamplerSpec(Dims(3, 2), seed=808)
        rng = np.random.default_rng(808)
        for i in range(20):
            sys = sample_ph(spec, stream(808, i))
            base = rank_svd(kalman_matrix(sys))
            Q = rng.standard_normal((2, 2))
            while abs(np.linalg.det(Q)) < 1e-2:
                Q = rng.standard_normal((2, 2))
            mixed = PHTSystem(sys.dims, sys.field, sys.J, sys.H, sys.B @ Q)
            assert rank_svd(kalman_matrix(mixed)).rank == base.rank
