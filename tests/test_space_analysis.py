"""Word-pair probes, orthogonal alignment, PCA, and correlation."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from metaseq import space_analysis
from metaseq.embedding_io import ContextualLayerFile
from metaseq.errors import (
    DegeneracyError,
    DimensionError,
    NumericError,
    ParameterError,
)
from metaseq.space_analysis import (
    ORTHOGONALITY_TOL,
    avg_l2,
    avg_pair_cosine,
    build_pairs,
    pca_2d,
    pearson_r,
    procrustes_align,
    svd,
)
from metaseq.tensor_core import RngStream
from metaseq.train_eval import SentenceRecord, TokenRecord
from helpers import random_orthogonal


def _sentence(sid, rows):
    return SentenceRecord(sid, "news",
                          [TokenRecord(text, "VERB", label, bool(target))
                           for text, label, target in rows])


class TestBuildPairs:
    def test_dual_labelled_words_paired(self):
        sents = [
            _sentence("a", [("wash", 0, 1), ("run", 1, 1)]),
            _sentence("b", [("wash", 1, 1), ("walk", 0, 1)]),
        ]
        pairs = build_pairs(sents, seed=0)
        assert len(pairs) == 1
        pair = pairs.pairs[0]
        assert pair.word == "wash"
        assert pair.metaphor.sentence_index == 1
        assert pair.literal.sentence_index == 0

    def test_no_dual_word_gives_empty_set(self):
        sents = [_sentence("a", [("x", 0, 1), ("y", 1, 1)])]
        assert len(build_pairs(sents, seed=0)) == 0

    def test_non_target_tokens_ignored(self):
        sents = [
            _sentence("a", [("wash", 0, 0)]),
            _sentence("b", [("wash", 1, 1)]),
        ]
        assert len(build_pairs(sents, seed=0)) == 0

    def test_sampling_seeded(self):
        sents = [_sentence(f"s{i}", [("wash", i % 2, 1)]) for i in range(20)]
        a = build_pairs(sents, seed=5)
        b = build_pairs(sents, seed=5)
        assert a.pairs == b.pairs

    def test_each_word_appears_once(self):
        sents = [
            _sentence("a", [("u", 0, 1), ("v", 0, 1)]),
            _sentence("b", [("u", 1, 1), ("v", 1, 1)]),
            _sentence("c", [("u", 1, 1)]),
        ]
        pairs = build_pairs(sents, seed=1)
        assert sorted(p.word for p in pairs.pairs) == ["u", "v"]


class TestAvgPairCosine:
    def _pairs_and_layer(self, met_vec, lit_vec):
        sents = [_sentence("a", [("w", 0, 1)]), _sentence("b", [("w", 1, 1)])]
        pairs = build_pairs(sents, seed=0)
        layer = ContextualLayerFile(1, len(met_vec), [
            np.asarray([lit_vec], dtype=np.float32),
            np.asarray([met_vec], dtype=np.float32),
        ])
        return pairs, layer

    def test_identical_vectors_give_one(self):
        pairs, layer = self._pairs_and_layer([1.0, 2.0], [1.0, 2.0])
        assert avg_pair_cosine(pairs, layer) == pytest.approx(1.0)

    def test_orthogonal_vectors_give_zero(self):
        pairs, layer = self._pairs_and_layer([1.0, 0.0], [0.0, 1.0])
        assert avg_pair_cosine(pairs, layer) == pytest.approx(0.0, abs=1e-12)

    def test_injected_angle_recovered(self):
        rng = np.random.default_rng(3)
        theta = 0.7
        sents, rows = [], []
        for i in range(10):
            u = rng.normal(size=6)
            u /= np.linalg.norm(u)
            v = rng.normal(size=6)
            v -= (v @ u) * u
            v /= np.linalg.norm(v)
            sents.append(_sentence(f"l{i}", [(f"w{i}", 0, 1)]))
            sents.append(_sentence(f"m{i}", [(f"w{i}", 1, 1)]))
            rows.append(np.asarray([u], dtype=np.float32))
            rows.append(np.asarray(
                [np.cos(theta) * u + np.sin(theta) * v], dtype=np.float32))
        layer = ContextualLayerFile(1, 6, rows)
        pairs = build_pairs(sents, seed=0)
        assert len(pairs) == 10
        assert avg_pair_cosine(pairs, layer) == pytest.approx(np.cos(theta), abs=1e-6)

    def test_scale_invariance_per_vector(self):
        pairs, layer = self._pairs_and_layer([1.0, 1.0], [2.0, 0.0])
        base = avg_pair_cosine(pairs, layer)
        scaled = ContextualLayerFile(1, 2, [
            mat * np.float32(idx + 3.5) for idx, mat in enumerate(layer.sentences)
        ])
        assert avg_pair_cosine(pairs, scaled) == pytest.approx(base, abs=1e-7)


class TestSvd:
    def test_diagonal(self):
        _, s, _ = svd(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(s, [3.0, 1.0])

    def test_identity(self):
        _, s, _ = svd(np.eye(4))
        np.testing.assert_allclose(s, np.ones(4))

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(8, 8))
        u, s, vt = svd(m)
        assert np.linalg.norm(u @ np.diag(s) @ vt - m) < 1e-8 * np.linalg.norm(m)
        assert np.linalg.norm(u.T @ u - np.eye(8)) < 1e-8
        assert np.linalg.norm(vt @ vt.T - np.eye(8)) < 1e-8
        assert (np.diff(s) <= 0).all() and (s >= 0).all()

    def test_non_finite_rejected(self):
        with pytest.raises(NumericError):
            svd(np.array([[1.0, np.inf], [0.0, 1.0]]))


class TestProcrustes:
    def test_self_alignment(self):
        rng = np.random.default_rng(1)
        b = rng.normal(size=(20, 5))
        result = procrustes_align(b, b)
        assert result.avg_l2 < 1e-10
        np.testing.assert_allclose(result.rotation, np.eye(5), atol=1e-10)

    def test_planted_rotation_recovered(self):
        rng = RngStream(2024)
        q = random_orthogonal(8, rng)
        b = np.random.default_rng(7).normal(size=(50, 8))
        e = b @ q.T          # column-convention e = q . b
        result = procrustes_align(b, e)
        assert np.linalg.norm(result.rotation - q) < 1e-6
        assert result.avg_l2 < 1e-8
        assert result.orthogonality_residual < 1e-8

    def test_rotation_always_orthogonal(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            b = rng.normal(size=(12, 4))
            e = rng.normal(size=(12, 4))
            result = procrustes_align(b, e)
            w = result.rotation
            assert np.linalg.norm(w @ w.T - np.eye(4)) < 1e-8

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            procrustes_align(np.zeros((5, 3)), np.zeros((6, 3)))

    def test_optimality_small_instances(self):
        data_rng = np.random.default_rng(5)
        q_rng = RngStream(99)
        for d, n in ((2, 4), (3, 6)):
            b = data_rng.normal(size=(n, d))
            e = data_rng.normal(size=(n, d))
            best = np.linalg.norm(procrustes_align(b, e).rotated - e)
            for _ in range(2000):
                q = random_orthogonal(d, q_rng)
                assert best <= np.linalg.norm(b @ q.T - e) + 1e-9


def _planted_rows(rng, n, d, scales=(6.0, 4.0)):
    """Isotropic noise plus one strong planted axis per scale; the default
    two are like the benchmark's layers."""
    axes = np.linalg.qr(rng.normal(size=(d, len(scales))))[0].T
    rows = rng.normal(0.0, 0.3, (n, d))
    for scale, axis in zip(scales, axes):
        rows += np.outer(rng.normal(0.0, scale, n), axis)
    return rows


def _oracle_rotation(b, e):
    u, _, vt = np.linalg.svd(e.T @ b)
    return u @ vt


def _no_svd(monkeypatch):
    def fail(matrix):
        raise AssertionError("the full SVD ran on the eigh path")
    monkeypatch.setattr(space_analysis, "svd", fail)


class TestProcrustesAgainstSvdOracle:
    """The rotation is the polar factor U Vt of E.T @ B, however it is computed."""

    def test_eigh_path_on_planted_axes(self, monkeypatch):
        rng = np.random.default_rng(11)
        n, d = 3000, 64
        e = _planted_rows(rng, n, d)
        q = np.linalg.qr(rng.normal(size=(d, d)))[0]
        b = (e + rng.normal(0.0, 0.1, (n, d))) @ q.T
        oracle = _oracle_rotation(b, e)
        _no_svd(monkeypatch)
        result = procrustes_align(b, e)
        assert np.abs(result.rotation - oracle).max() <= 1e-9
        want = avg_l2(e, b @ oracle.T)
        assert abs(result.avg_l2 - want) <= 1e-12 * want
        assert result.orthogonality_residual < ORTHOGONALITY_TOL / 10

    def test_newton_schulz_step_keeps_accurate_factor_off_the_svd(self, monkeypatch):
        # Eigenvalues of M.T @ M off by a relative 1e-9 leave the eigh factor
        # W = U Vt V diag(1 + eta)^-1/2 V.T: accurate, but with an
        # orthogonality residual of about |eta| = 3e-9, inside the
        # [TOL / 10, TOL) band that one Newton-Schulz step repairs.
        rng = np.random.default_rng(16)
        n, d = 3000, 64
        e = _planted_rows(rng, n, d)
        q = np.linalg.qr(rng.normal(size=(d, d)))[0]
        b = (e + rng.normal(0.0, 0.1, (n, d))) @ q.T
        oracle = _oracle_rotation(b, e)
        eta = 3e-9 / np.sqrt(d) * np.where(np.arange(d) % 2 == 0, 1.0, -1.0)
        exact_eigh = space_analysis._eigh

        def perturbed_eigh(symmetric):
            lam, v = exact_eigh(symmetric)
            return lam * (1.0 + eta), v

        m = e.T @ b
        lam, v = perturbed_eigh(m.T @ m)
        raw = space_analysis._orthogonality_residual((m @ (v / np.sqrt(lam))) @ v.T)
        assert ORTHOGONALITY_TOL / 10 <= raw < ORTHOGONALITY_TOL
        monkeypatch.setattr(space_analysis, "_eigh", perturbed_eigh)
        _no_svd(monkeypatch)
        result = procrustes_align(b, e)
        assert np.abs(result.rotation - oracle).max() <= 1e-9
        assert result.orthogonality_residual < ORTHOGONALITY_TOL / 10

    def _assert_svd_path(self, b, e):
        result = procrustes_align(b, e)
        np.testing.assert_array_equal(result.rotation, _oracle_rotation(b, e))
        assert result.orthogonality_residual < ORTHOGONALITY_TOL

    def test_fewer_tokens_than_dimensions_falls_back(self):
        rng = np.random.default_rng(12)
        self._assert_svd_path(rng.normal(size=(5, 8)), rng.normal(size=(5, 8)))

    def test_zero_cross_product_falls_back(self):
        b = np.array([[1.0], [-1.0]])
        e = np.array([[1.0], [1.0]])
        assert (e.T @ b == 0.0).all()
        self._assert_svd_path(b, e)

    def test_ill_conditioned_spectrum_falls_back(self):
        # E.T @ B = U diag(sigma) V.T with sigma from 1 to 1e-7, so the
        # eigenvalues of M.T @ M span lambda_min / lambda_max = 1e-14.
        rng = np.random.default_rng(13)
        n, d = 64, 16
        basis = np.linalg.qr(rng.normal(size=(n, d)))[0]
        u = np.linalg.qr(rng.normal(size=(d, d)))[0]
        v = np.linalg.qr(rng.normal(size=(d, d)))[0]
        sigma = np.logspace(0.0, -7.0, d)
        b, e = basis, basis @ (v * sigma) @ u.T
        lam = np.linalg.eigvalsh((e.T @ b).T @ (e.T @ b))
        assert lam[0] / lam[-1] == pytest.approx(1e-14, rel=1e-3)
        self._assert_svd_path(b, e)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, bad):
        b = np.ones((4, 3))
        e = np.ones((4, 3))
        e[2, 1] = bad
        with pytest.raises(NumericError):
            procrustes_align(b, e)


class TestAvgL2:
    def test_identical(self):
        m = np.arange(12.0).reshape(4, 3)
        assert avg_l2(m, m) == 0.0

    def test_three_four_five(self):
        assert avg_l2([[0.0, 0.0]], [[3.0, 4.0]]) == pytest.approx(5.0)

    def test_mean_of_row_distances(self):
        e = np.array([[0.0, 0.0], [0.0, 0.0]])
        b = np.array([[3.0, 4.0], [1.0, 0.0]])
        assert avg_l2(e, b) == pytest.approx(3.0)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            avg_l2(np.zeros((2, 2)), np.zeros((3, 2)))


class TestPca2d:
    def test_collinear_points(self):
        v = np.array([3.0, 4.0]) / 5.0
        pts = np.outer([0.0, 1.0, 2.0, 3.0], v)
        proj = pca_2d(pts)
        np.testing.assert_allclose(np.abs(proj.axes[0]), np.abs(v), atol=1e-12)
        assert proj.axes[0][np.argmax(np.abs(proj.axes[0]))] > 0
        assert proj.explained_variance[0] == pytest.approx(1.0)
        assert proj.explained_variance[1] == pytest.approx(0.0, abs=1e-12)

    def test_unit_square_symmetry(self):
        pts = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        proj = pca_2d(pts)
        assert proj.explained_variance[0] == pytest.approx(0.5)
        assert proj.explained_variance[1] == pytest.approx(0.5)

    def test_projection_non_expansive(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(15, 6))
        proj = pca_2d(pts)
        for i in range(15):
            for j in range(i):
                original = np.linalg.norm(pts[i] - pts[j])
                projected = np.linalg.norm(proj.points[i] - proj.points[j])
                assert projected <= original + 1e-12

    def test_ratios_sum_to_one_for_rank_two(self):
        rng = np.random.default_rng(6)
        basis = rng.normal(size=(2, 7))
        pts = rng.normal(size=(20, 2)) @ basis
        proj = pca_2d(pts)
        assert sum(proj.explained_variance) == pytest.approx(1.0)

    def test_ratios_never_exceed_one(self):
        rng = np.random.default_rng(8)
        proj = pca_2d(rng.normal(size=(30, 5)))
        assert 0.0 <= proj.explained_variance[1] <= proj.explained_variance[0] <= 1.0
        assert sum(proj.explained_variance) <= 1.0 + 1e-12

    def test_rank_zero_rejected(self):
        with pytest.raises(DegeneracyError):
            pca_2d(np.ones((5, 3)))

    def test_too_few_rows(self):
        with pytest.raises(ParameterError):
            pca_2d(np.zeros((2, 3)))

    def test_axes_orthonormal(self):
        rng = np.random.default_rng(9)
        proj = pca_2d(rng.normal(size=(12, 4)))
        np.testing.assert_allclose(proj.axes @ proj.axes.T, np.eye(2), atol=1e-10)


def _oracle_pca(x):
    centered = x - x.mean(axis=0)
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    axes = vt[:2].copy()
    for axis in axes:
        if axis[np.argmax(np.abs(axis))] < 0:
            axis *= -1.0
    return centered @ axes.T, s[:2] ** 2 / (s * s).sum()


class TestPcaAgainstSvdOracle:
    def test_covariance_path_matches_svd(self, monkeypatch):
        rng = np.random.default_rng(14)
        x = _planted_rows(rng, 500, 32) + 2.0
        points, ratios = _oracle_pca(x)
        _no_svd(monkeypatch)
        proj = pca_2d(x)
        assert np.abs(proj.points - points).max() <= 1e-9
        assert np.abs(np.array(proj.explained_variance) - ratios).max() <= 1e-12

    @pytest.mark.parametrize("d", [2, 3])
    def test_rank_one_second_ratio_not_negative(self, d):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            x = np.outer(rng.normal(size=6), rng.normal(size=d)) + rng.normal(size=d)
            proj = pca_2d(x)
            assert proj.explained_variance[1] >= 0.0
            assert proj.explained_variance[0] == pytest.approx(1.0)

    @pytest.mark.parametrize("shape", [(6, 3), (3, 6)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, shape, bad):
        x = np.arange(18.0).reshape(shape)
        x[1, 2] = bad
        with pytest.raises(NumericError):
            pca_2d(x)

    def test_variance_overflow_rejected(self):
        x = np.random.default_rng(15).normal(size=(6, 3)) * 1e200
        with pytest.raises(NumericError, match="overflows"):
            pca_2d(x)


def _eigh_pca(x):
    """Points, axes and ratios from the full eigh of the covariance: the
    reference for the certified iteration and the exact output of its
    fallback."""
    centered = x - x.mean(axis=0)
    lam, vecs = np.linalg.eigh(centered.T @ centered)
    top, axes = lam[:-3:-1], vecs[:, :-3:-1].T.copy()
    for i in range(2):
        if axes[i, np.argmax(np.abs(axes[i]))] < 0:
            axes[i] = -axes[i]
    total = float(np.vdot(centered, centered))
    ratios = (max(float(top[0]), 0.0) / total, max(float(top[1]), 0.0) / total)
    return centered @ axes.T, axes, ratios


def _no_eigh(monkeypatch):
    def fail(symmetric):
        raise AssertionError("the full eigh ran where the iteration must certify")
    monkeypatch.setattr(space_analysis, "_eigh", fail)


def _counted_eigh(monkeypatch) -> list:
    calls = []
    exact_eigh = space_analysis._eigh

    def counted(symmetric):
        calls.append(symmetric.shape)
        return exact_eigh(symmetric)
    monkeypatch.setattr(space_analysis, "_eigh", counted)
    return calls


def _hadamard(order):
    h = np.ones((1, 1))
    while h.shape[0] < order:
        h = np.block([[h, h], [h, -h]])
    return h


class TestPcaSubspaceIteration:
    """With n >= d > block width, the top-2 axes come from a certified block
    subspace iteration on the covariance, else from its full eigh."""

    @pytest.mark.parametrize("scales", [(6.0, 4.0), (6.0, 5.9), (6.0, 4.0, 3.9)],
                             ids=["wide", "narrow-12", "narrow-23"])
    def test_certified_axes_match_eigh_oracle(self, monkeypatch, scales):
        x = _planted_rows(np.random.default_rng(17), 2000, 64, scales) + 1.5
        points, _, ratios = _eigh_pca(x)
        _no_eigh(monkeypatch)
        proj = pca_2d(x)
        assert np.abs(proj.points - points).max() <= 1e-9
        assert np.abs(np.array(proj.explained_variance) - ratios).max() <= 1e-12
        np.testing.assert_allclose(proj.axes @ proj.axes.T, np.eye(2), atol=1e-14)

    def test_repeated_calls_give_identical_bytes(self, monkeypatch):
        x = _planted_rows(np.random.default_rng(18), 600, 48, (5.0, 3.0))
        _no_eigh(monkeypatch)
        first, second = pca_2d(x), pca_2d(x)
        assert first.points.tobytes() == second.points.tobytes()
        assert first.axes.tobytes() == second.axes.tobytes()
        assert first.explained_variance == second.explained_variance

    def _assert_eigh_fallback(self, monkeypatch, x):
        calls = _counted_eigh(monkeypatch)
        proj = pca_2d(x)
        assert calls == [(x.shape[1], x.shape[1])]
        points, axes, ratios = _eigh_pca(x)
        np.testing.assert_array_equal(proj.points, points)
        np.testing.assert_array_equal(proj.axes, axes)
        assert proj.explained_variance == ratios

    def test_isotropic_data_falls_back(self, monkeypatch):
        self._assert_eigh_fallback(monkeypatch, np.random.default_rng(19).normal(size=(400, 64)))

    def test_equal_second_and_third_eigenvalues_fall_back(self, monkeypatch):
        # Hadamard columns are orthogonal and sum to zero, so the covariance
        # is exactly diag(64 * scale**2): lambda_2 == lambda_3 in floating point.
        scale = np.array([8.0, 4.0, 4.0, 2.0] + [1.0] * 12)
        x = _hadamard(64)[:, 1:17] * scale
        cov = x.T @ x
        assert cov[1, 1] == cov[2, 2] and not cov[~np.eye(16, dtype=bool)].any()
        self._assert_eigh_fallback(monkeypatch, x)

    def test_rank_one_data_falls_back(self, monkeypatch):
        rng = np.random.default_rng(20)
        x = np.outer(rng.normal(size=50), rng.normal(size=20)) + rng.normal(size=20)
        self._assert_eigh_fallback(monkeypatch, x)

    def test_no_wider_than_the_block_uses_eigh(self, monkeypatch):
        x = _planted_rows(np.random.default_rng(21), 200, 10, (5.0, 3.0))
        self._assert_eigh_fallback(monkeypatch, x)


class TestPearson:
    def test_perfect_positive(self):
        x = np.arange(10.0)
        assert pearson_r(x, x) == pytest.approx(1.0)

    def test_perfect_negative_affine(self):
        x = np.arange(10.0)
        assert pearson_r(x, -2.0 * x + 7.0) == pytest.approx(-1.0)

    def test_hand_value(self):
        assert pearson_r([1.0, 2.0, 3.0], [1.0, 2.0, 4.0]) == pytest.approx(
            0.9819805060619659, abs=1e-12)

    def test_zero_variance_rejected(self):
        with pytest.raises(DegeneracyError):
            pearson_r([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            pearson_r([1.0, 2.0], [1.0, 2.0, 3.0])

    @given(st.floats(min_value=0.01, max_value=100.0),
           st.floats(min_value=-50.0, max_value=50.0))
    def test_affine_invariance(self, scale, shift):
        x = np.array([0.0, 1.0, 3.0, 4.0, 9.0])
        y = np.array([2.0, 1.0, 5.0, 4.0, 7.0])
        base = pearson_r(x, y)
        assert pearson_r(x, scale * y + shift) == pytest.approx(base, abs=1e-9)
        assert pearson_r(scale * x + shift, y) == pytest.approx(base, abs=1e-9)
