"""Embedding-space probes: metaphor/literal cosine separation, orthogonal
alignment between two embedding spaces, 2-D PCA projection, and Pearson
correlation.

Matrices are token-major throughout: one row per token occurrence. The
orthogonal alignment therefore works on M = E.T @ B (a d x d product):
the rotation minimizing the Frobenius distance between the rotated source
rows and the target rows is the polar factor of M (Schoenemann 1966).
It is computed as M V diag(lam)^-1/2 V.T from the symmetric eigenproblem
M.T @ M = V diag(lam) V.T (Higham 1986). When that factor's orthogonality
residual lies between a tenth of ``ORTHOGONALITY_TOL`` and the tolerance,
one Newton-Schulz step W (3I - W.T W) / 2 squares it (Higham 2008, ch. 8);
when M is singular or the residual is still not below a tenth of the
tolerance (a very ill-conditioned M), W is U Vt from the SVD of M.

The 2-D PCA takes its two axes from the d x d covariance C when there are
at least as many rows as columns, and from the SVD of the centred rows
otherwise; the total variance is the squared Frobenius norm of the
centred rows either way. On C, a block subspace iteration with a
Rayleigh-Ritz step on every pass (Halko, Martinsson & Tropp 2011) gives
the top-2 eigenpairs once their residuals certify each axis to a sine of
``_PCA_AXIS_SINE`` against the gaps to the neighbouring Ritz values. If
they do not within ``_PCA_PASSES`` passes, or d is no wider than the
block, the axes come from the full ``eigh`` of the same C.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DegeneracyError,
    DimensionError,
    NumericError,
    ParameterError,
)
from .linguistic_features import cosine
from .tensor_core import RngStream
from .train_eval import METAPHOR, SentenceRecord

ORTHOGONALITY_TOL = 1e-8

# The most d x d float64 arrays procrustes_align holds at once, LAPACK's
# workspace included, rounded up from the rise of a fresh process's VmHWM
# at d = 1,500 with one BLAS thread: 6.4 d^2 on the eigh path (3,000 random
# rows), 7.3 on the SVD fallback for a singular M (200 rows) and 9.0 where W
# is formed, rejected and made again by the SVD (M ill-conditioned, 600 to
# 3,000 rows), of which numpy's SVD holds about 6.6 (its copy of M, U, Vt
# and the workspace).
PROCRUSTES_SQUARES = 10

# Rows per block in avg_l2 (3 MiB at d = 1024). With OpenBLAS 0.3.31 on one
# BLAS thread, blocks of a multiple of 192 rows gave products bit-identical
# to the same rows of the whole product on the SkylakeX, Haswell, Zen and
# Sandybridge kernels, at every d tried from 1 to 1,100; 128, 256 and 512 did
# not on SkylakeX, for some d between 200 and 1,000. On two BLAS threads the
# whole product's own last bits depend on how OpenBLAS splits it: blocks
# matched it where d was a multiple of 8, not at other d from 200 up.
L2_BLOCK_ROWS = 384

# PCA block subspace iteration: block width, pass budget before the full
# eigh, the sine of the angle each accepted axis is certified within (small
# enough that six-decimal coordinates match the eigh axes), and the
# RngStream id of the fixed starting block.
_PCA_BLOCK = 10
_PCA_PASSES = 12
_PCA_AXIS_SINE = 1e-12
_PCA_START_STREAM = 2


# ---------------------------------------------------------------------------
# Metaphor/literal word pairs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Occurrence:
    sentence_index: int
    token_index: int


@dataclass(frozen=True)
class WordPair:
    word: str
    metaphor: Occurrence
    literal: Occurrence


def build_pairs(sentences: Sequence[SentenceRecord], seed: int = 0) -> list[WordPair]:
    """One (metaphoric, literal) occurrence pair per dual-labelled surface form.

    Only target tokens participate. When a form occurs several times under
    one label, a seeded draw picks the occurrence.
    """
    met: dict[str, list[Occurrence]] = {}
    lit: dict[str, list[Occurrence]] = {}
    for s_idx, sent in enumerate(sentences):
        for t_idx, tok in enumerate(sent.tokens):
            if not tok.target:
                continue
            bucket = met if tok.label == METAPHOR else lit
            bucket.setdefault(tok.text, []).append(Occurrence(s_idx, t_idx))
    rng = RngStream(seed, stream_id=7919)
    pairs = []
    for word in sorted(set(met) & set(lit)):
        m_occ = met[word][rng.choice(len(met[word]))]
        l_occ = lit[word][rng.choice(len(lit[word]))]
        pairs.append(WordPair(word, m_occ, l_occ))
    return pairs


def avg_pair_cosine(pairs: Sequence[WordPair], layer) -> float:
    """Mean cosine between the two occurrences of every pair (lower = the
    layer separates the senses better). ``layer`` must be read against the
    dataset the pairs were built from (``embedding_io.load_contextual``);
    its records are read once each."""
    if not pairs:
        raise DegeneracyError("word-pair set is empty")
    rows = layer.gather([(occ.sentence_index, occ.token_index)
                         for pair in pairs for occ in (pair.metaphor, pair.literal)])
    total = 0.0
    for met, lit in zip(rows[0::2], rows[1::2]):
        total += cosine(met, lit)
    return total / len(pairs)


# ---------------------------------------------------------------------------
# Orthogonal alignment
# ---------------------------------------------------------------------------

def _finite_matrix(matrix, name: str) -> np.ndarray:
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionError(f"{name} expects a matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NumericError(f"{name} input contains non-finite entries")
    return m


def svd(matrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Singular value decomposition M = U diag(S) Vt with the usual
    orthonormality and ordering guarantees."""
    m = _finite_matrix(matrix, "svd")
    try:
        u, s, vt = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"svd did not converge: {exc}") from None
    return u, s, vt


def _eigh(symmetric: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of a symmetric matrix."""
    try:
        return np.linalg.eigh(symmetric)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigh did not converge: {exc}") from None


@dataclass(frozen=True)
class AlignmentResult:
    rotation: np.ndarray          # (d, d) orthogonal map applied to source rows
    avg_l2: float
    orthogonality_residual: float


def _row_blocks(n: int) -> list[tuple[int, int]]:
    """[start, stop) blocks of ``L2_BLOCK_ROWS`` rows covering n rows; the
    last block takes the remainder, so no block but a lone one is shorter."""
    starts = list(range(0, max(n - L2_BLOCK_ROWS, 0) + 1, L2_BLOCK_ROWS))
    return list(zip(starts, starts[1:] + [n]))


def avg_l2(e_rows, b_rows, rotation=None) -> float:
    """Mean Euclidean distance between corresponding rows of E and of B, or
    of B @ rotation.T when a (d, d) ``rotation`` is given.

    The distances are computed in row blocks (``_row_blocks``), so no
    temporary holds more than one block; with one BLAS thread, each is the
    same float as in ``np.linalg.norm(e - b @ rotation.T, axis=1)`` (see
    ``L2_BLOCK_ROWS``).
    """
    e = np.asarray(e_rows, dtype=np.float64)
    b = np.asarray(b_rows, dtype=np.float64)
    if e.shape != b.shape or e.ndim != 2:
        raise DimensionError(f"avg_l2: shapes differ, {e.shape} vs {b.shape}")
    squares = np.empty(e.shape[0])
    for start, stop in _row_blocks(e.shape[0]):
        if rotation is None:
            diff = e[start:stop] - b[start:stop]
        else:
            diff = b[start:stop] @ rotation.T
            np.subtract(e[start:stop], diff, out=diff)
        diff *= diff
        np.add.reduce(diff, axis=1, out=squares[start:stop])
    return float(np.mean(np.sqrt(squares, out=squares)))


def _orthogonality_residual(w: np.ndarray) -> float:
    """|W W.T - I|, with the identity subtracted on the diagonal in place."""
    product = w @ w.T
    product.flat[::w.shape[0] + 1] -= 1.0
    return float(np.linalg.norm(product))


def procrustes_align(b_rows, e_rows) -> AlignmentResult:
    """Best orthogonal map of token-major B onto token-major E.

    With rows as tokens, W is the polar factor of M = E.T @ B, i.e. U Vt
    for U S Vt = svd(M). It is computed as M V diag(lam)^-1/2 V.T from
    eigh(M.T @ M). A residual |W W.T - I| in [ORTHOGONALITY_TOL / 10,
    ORTHOGONALITY_TOL) gets one Newton-Schulz step; W comes from the SVD
    instead when M is singular or the residual is still not below
    ORTHOGONALITY_TOL / 10.
    The summary is the mean per-row distance from B @ W.T to E, computed in
    row blocks by ``avg_l2``; beyond its inputs, the call holds a few
    d x d matrices and one block of rows.
    """
    b = np.asarray(b_rows, dtype=np.float64)
    e = np.asarray(e_rows, dtype=np.float64)
    if b.shape != e.shape or b.ndim != 2:
        raise DimensionError(f"procrustes_align: shapes differ, {b.shape} vs {e.shape}")
    m = _finite_matrix(e.T @ b, "procrustes_align")
    lam, v = _eigh(m.T @ m)    # NaN eigenvalues when M.T @ M overflows
    residual = np.inf
    if lam[0] > 0:
        w = (m @ (v / np.sqrt(lam))) @ v.T
        residual = _orthogonality_residual(w)
        if ORTHOGONALITY_TOL / 10 <= residual < ORTHOGONALITY_TOL:
            w = 1.5 * w - 0.5 * (w @ (w.T @ w))    # Newton-Schulz: W (3I - W.T W) / 2
            residual = _orthogonality_residual(w)
    del lam, v
    if not residual < ORTHOGONALITY_TOL / 10:    # singular or ill-conditioned M
        w = None                                   # the rejected W, not held through the SVD
        u, _, vt = svd(m)
        w = u @ vt
        del u, vt
        residual = _orthogonality_residual(w)
    if residual >= ORTHOGONALITY_TOL:
        raise NumericError(f"rotation lost orthogonality (residual {residual:.3e})")
    del m
    return AlignmentResult(w, avg_l2(e, b, w), residual)


# ---------------------------------------------------------------------------
# PCA projection
# ---------------------------------------------------------------------------

def _top2_eigenpairs(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Top-2 eigenvalues and eigenvectors (as rows) of the symmetric
    positive semi-definite ``cov``, or None when they are not certified
    within ``_PCA_PASSES`` passes.

    Each pass multiplies the orthonormal block Q by C once and takes the
    Ritz pairs (theta_k, v_k) of span(C Q), descending, from eigh(Q.T C Q).
    A unit v with Rayleigh quotient theta and residual r = |C v - theta v|
    lies within sine r / delta of the eigenvector whose eigenvalue is
    nearest theta, where delta is the distance from theta to the rest of
    the spectrum (Davis & Kahan 1970). Ritz values lie below their
    eigenvalues, and lambda_k lies within r_k of theta_k once the block
    holds the top eigenvectors, so delta_1 >= theta_1 - theta_2 - r_2 and
    delta_2 >= min(theta_1 - theta_2, theta_2 - theta_3 - r_3). Both axes
    are accepted when r_k < _PCA_AXIS_SINE * delta_k; equal or nearly
    equal eigenvalues never pass, since the bound then has no gap.
    """
    d = cov.shape[0]
    start = RngStream(0, stream_id=_PCA_START_STREAM).uniform((d, _PCA_BLOCK), -1.0, 1.0)
    q = np.linalg.qr(start)[0]
    for _ in range(_PCA_PASSES):
        y = cov @ q
        theta, s = np.linalg.eigh(q.T @ y)
        theta, s = theta[:-4:-1], s[:, :-4:-1]    # top three Ritz pairs, descending
        v = q @ s
        r = np.linalg.norm(y @ s - v * theta, axis=0)
        delta = np.array([theta[0] - theta[1] - r[1],
                          min(theta[0] - theta[1], theta[1] - theta[2] - r[2])])
        if np.all(r[:2] < _PCA_AXIS_SINE * delta):
            return theta[:2], v[:, :2].T.copy()
        q = np.linalg.qr(y)[0]
    return None


@dataclass(frozen=True)
class PcaProjection:
    mean: np.ndarray              # (d,)
    axes: np.ndarray              # (2, d), orthonormal rows
    points: np.ndarray            # (n, 2)
    explained_variance: tuple[float, float]


def pca_2d(data) -> PcaProjection:
    """Project rows onto the top-2 principal axes of the centered data.

    The axes are the top-2 eigenvectors of the d x d covariance when
    n >= d (certified Ritz vectors of a block subspace iteration, else the
    full eigh), and the top-2 right singular vectors of the centered rows
    otherwise. Explained-variance ratios are the eigenvalues, clamped at 0
    (or the squared singular values), over the squared Frobenius norm of
    the centered rows. Axis signs are fixed so each axis's
    largest-magnitude component is positive, making outputs reproducible.
    """
    x = np.asarray(data, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionError(f"pca_2d expects a matrix, got shape {x.shape}")
    n, d = x.shape
    if n < 3:
        raise ParameterError(f"pca_2d needs at least 3 rows, got {n}")
    if d < 2:
        raise ParameterError(f"pca_2d needs at least 2 columns, got {d}")
    with np.errstate(invalid="ignore", over="ignore"):
        mean = x.mean(axis=0)
        centered = x - mean
        total = float(np.vdot(centered, centered))
    if not np.isfinite(total):
        raise NumericError("pca_2d input is not finite, or its variance overflows")
    if total == 0.0:
        raise DegeneracyError("all rows identical: no variance to project")
    if n >= d:
        cov = centered.T @ centered
        pairs = _top2_eigenpairs(cov) if d > _PCA_BLOCK else None
        if pairs is None:
            lam, vecs = _eigh(cov)
            pairs = lam[:-3:-1], vecs[:, :-3:-1].T.copy()
        top, axes = pairs
    else:
        _, s, vt = svd(centered)
        top, axes = s[:2] ** 2, vt[:2].copy()
    for i in range(2):
        peak = np.argmax(np.abs(axes[i]))
        if axes[i, peak] < 0:
            axes[i] = -axes[i]
    points = centered @ axes.T
    ratios = (max(float(top[0]), 0.0) / total, max(float(top[1]), 0.0) / total)
    return PcaProjection(mean, axes, points, ratios)


# ---------------------------------------------------------------------------
# Correlation
# ---------------------------------------------------------------------------

def pearson_r(x, y) -> float:
    """Sample Pearson correlation coefficient."""
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.ndim != 1 or xa.shape != ya.shape:
        raise DimensionError(f"pearson_r: shapes differ, {xa.shape} vs {ya.shape}")
    if xa.size < 2:
        raise ParameterError("pearson_r needs at least 2 points")
    dx = xa - xa.mean()
    dy = ya - ya.mean()
    sx = float(np.sqrt((dx * dx).sum()))
    sy = float(np.sqrt((dy * dy).sum()))
    if sx == 0.0 or sy == 0.0:
        raise DegeneracyError("zero variance in one of the series")
    return float((dx * dy).sum() / (sx * sy))
