"""Single-layer semi-NMF: X ~ Z H with H >= 0 and Z unconstrained in sign.

Used as the layer-by-layer pretraining workhorse. The basis update is the
exact least-squares solution Z = X H^T (H H^T)^{-1}, taken from the l x l
Gram of H when that Gram is certified well conditioned and through the
rank-revealing pseudo-inverse `mp_pinv` otherwise; the representation update
is Ding, Li & Jordan's KKT-targeting multiplicative rule, which keeps H
nonnegative and never increases the reconstruction error. The rule writes
into arrays its caller passes, so a layer's sweeps work in l x n arrays
allocated once per layer, and a sweep allocates none (in a fresh process,
freeing each sweep's temporaries let the allocator return them to the OS,
and the next sweep faulted them back in page by page).
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import RankDeficientError, RankDeficientWarning

Array = np.ndarray

log = logging.getLogger(__name__)

# Floor for zero denominators in multiplicative updates, relative to the
# largest denominator; preserves fixed points to within this epsilon.
EPS_DENOM = 1e-12

# Singular values below RCOND * sigma_max are treated as zero when forming
# pseudo-inverses.
RCOND = 1e-10

# A sweep solves with G = H H^T when lambda_min(G) > GRAM_RCOND * lambda_max(G),
# that is cond(H) < 316: far from the RCOND cut, so `mp_pinv` would keep full
# rank there and warn nothing. The normal equations lose about cond(H)^2 * eps;
# with cond(H) up to 1e4 they drifted 1e-8 from the pseudo-inverse in 20 sweeps.
GRAM_RCOND = 1e-5


def pos_neg_split(A: Array) -> tuple[Array, Array]:
    """Split A into elementwise nonnegative parts with A = plus - minus."""
    A = np.asarray(A, dtype=np.float64)
    return np.maximum(A, 0.0), np.maximum(-A, 0.0)


def mp_pinv(A: Array, warn_context: str = "", expected_rank: int | None = None) -> Array:
    """Moore-Penrose pseudo-inverse from one thin SVD, with a relative cutoff.

    Coincides with A^T (A A^T)^{-1} / (A^T A)^{-1} A^T on full-rank input:
    from A = U diag(s) V^T, pinv(A) = V diag(1/s) U^T over the kept s.
    Factoring A itself (rather than eigendecomposing its Gram) keeps null
    directions exactly null, which the normal-equation checks depend on. A
    RankDeficientWarning is emitted when the detected rank drops below
    `expected_rank` (default: full) - that signals a collapsed
    representation, as opposed to the structural low rank of deep chains.
    Raises RankDeficientError for an all-zero or non-finite matrix.
    """
    A = np.asarray(A, dtype=np.float64)
    if not np.isfinite(A).all():
        raise RankDeficientError(
            f"non-finite matrix{' in ' + warn_context if warn_context else ''}"
        )
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    if s.size == 0 or s[0] <= 0:
        raise RankDeficientError(
            f"zero matrix has no pseudo-inverse direction{' in ' + warn_context if warn_context else ''}"
        )
    keep = s > RCOND * s[0]
    rank = int(keep.sum())
    if rank < min(expected_rank if expected_rank is not None else s.size, s.size):
        # static message so the default warning filter dedups per call site;
        # the numbers go to the debug log
        warnings.warn(
            "rank-deficient factor; singular values truncated"
            + (f" in {warn_context}" if warn_context else ""),
            RankDeficientWarning,
            stacklevel=2,
        )
        log.debug(
            "rank %d < expected %s in %s (sigma_min=%.3e, sigma_max=%.3e)",
            rank, expected_rank, warn_context or "<unnamed>", s[-1], s[0],
        )
    s_inv = np.where(keep, 1.0 / np.where(keep, s, 1.0), 0.0)
    return (Vt.T * s_inv) @ U.T


def multiplicative_terms(
    ZtX: Array, ZtZ: Array, H: Array, num: Array, den: Array, part: Array
) -> None:
    """Write num = [Z^T X]+ + [Z^T Z]- H and den = [Z^T X]- + [Z^T Z]+ H for
    ||X - Z H||_F^2 into the caller's l x n arrays, from the products
    ZtX = Z^T X (l, n) and ZtZ = Z^T Z (l, l), with `part` as l x n scratch
    for a sign part of ZtX. ZtX and H are only read.

    The Gram matrix is split before it multiplies the nonnegative H, so its
    diagonal keeps den positive wherever H is: that bounds the step and gives
    monotone descent (splitting the product admits vanishing denominators).
    """
    gram_p, gram_m = pos_neg_split(ZtZ)
    np.matmul(gram_m, H, out=num)
    np.add(np.maximum(ZtX, 0.0, out=part), num, out=num)
    np.matmul(gram_p, H, out=den)
    np.negative(ZtX, out=part)
    np.add(np.maximum(part, 0.0, out=part), den, out=den)


def multiplicative_step(H: Array, num: Array, den: Array, out: Array) -> Array:
    """Write H * sqrt(num / den) into `out` and return it, den floored at
    EPS_DENOM * max(den), or at EPS_DENOM if that is 0; H stays >= 0 and its
    zeros stay zero. num and den are overwritten."""
    floor = EPS_DENOM * float(den.max()) or EPS_DENOM
    np.divide(num, np.maximum(den, floor, out=den), out=num)
    return np.multiply(H, np.sqrt(num, out=num), out=out)


@dataclass
class SemiNmfResult:
    """Factorization output: basis Z (d, l), representation H (l, n) >= 0,
    the number of sweeps run, and for d >= n the (n, l) right factor P of
    the last basis step, with Z = X P exactly (H^T G^{-1} from the
    certified Gram, else pinv(H)); P is None for d < n, where it would be
    larger than Z."""

    Z: Array
    H: Array
    iters: int
    P: Array | None = None


def _certified_gram(H: Array) -> Array | None:
    """G = H H^T if it is finite and lambda_min(G) > GRAM_RCOND * lambda_max(G),
    else None (a zero, non-finite or ill-conditioned H goes to `mp_pinv`)."""
    G = H @ H.T
    if not np.isfinite(G).all():
        return None
    w = np.linalg.eigvalsh(G)
    return G if w[0] > GRAM_RCOND * w[-1] else None


def _basis_t(X: Array, H: Array, G: Array | None) -> tuple[Array, Array | None]:
    """(Z^T, P) of the least-squares basis for H: G^{-1} (H X^T) from the
    certified Gram G, with P None, else (X P)^T with P = `mp_pinv`(H)."""
    if G is None:
        P = mp_pinv(H, warn_context="update_basis")
        return (X @ P).T, P
    return np.linalg.solve(G, H @ X.T), None


def fit_seminmf(X: Array, l: int, iters: int, seed) -> SemiNmfResult:
    """Alternate basis/representation updates from a seeded random H, exactly
    `iters` sweeps.

    `l` must not exceed the sample count; widths above the feature count are
    permitted (the basis update only needs H to have full row rank). The basis
    is the least-squares Z = X H^T G^{-1} with G = H H^T, so each sweep needs
    only the l x n product Z^T X and the l x l Gram Z^T Z, never a d x n
    array. When G is certified well conditioned (`GRAM_RCOND`), the sweep
    solves with G and forms no n x l pseudo-inverse; otherwise it takes
    P = `mp_pinv`(H), which owns the rank decision and its warnings, forms
    Z^T = (X P)^T and both products directly, as a layer with d < n does
    in every sweep (Z^T = G^{-1} (H X^T)), 2dnl flops a sweep. A certified
    sweep of a layer with d >= n uses the kernel form: K = X^T X once per
    layer, then Z^T X = G^{-1} (H K) and Z^T Z = (Z^T X) H^T G^{-1}, n^2 l
    flops a sweep. At d = n, as for a view's n x n row-space factor
    (`fitting.fit`), the kernel form is the cheaper one too. From d = n the
    basis is Z = X P, formed once from the last basis step's right factor P,
    which the result carries so that a basis fitted to such a factor R of
    X = QR lifts to X's basis X P. The sweeps work in four l x n arrays
    allocated once: Z^T X (direct form), the rule's num and den, and the
    other half of H's pair, which is the rule's scratch until the step
    writes the new H into it. So a sweep allocates no l x n array, except
    the kernel form's H K and its solve (`np.linalg.solve` takes no `out=`).
    """
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[1]
    if l > n:
        raise RankDeficientError(f"layer width {l} exceeds sample count {n}")
    if iters < 1:
        raise ValueError("iters must be >= 1")
    # uniform in (0, 1], scale-matched to the data so early updates stay
    # well inside float range
    scale = np.linalg.norm(X) / (l * n)
    H = (1.0 - np.random.default_rng(seed).random((l, n))) * scale
    K = X.T @ X if X.shape[0] >= n else None
    # the layer's l x n work arrays: the step writes the new H into H_basis,
    # which then holds the H of the sweep's basis step, and is scratch before
    H_basis, direct_ZtX, num, den = (np.empty((l, n)) for _ in range(4))
    for _ in range(iters):
        G = _certified_gram(H)
        if K is None or G is None:
            Zt, P = _basis_t(X, H, G)
            ZtX, ZtZ = np.matmul(Zt, X, out=direct_ZtX), Zt @ Zt.T
        else:
            ZtX = np.linalg.solve(G, H @ K)
            ZtZ = np.linalg.solve(G, H @ ZtX.T).T
        multiplicative_terms(ZtX, ZtZ, H, num, den, part=H_basis)
        H_basis, H = H, multiplicative_step(H, num, den, out=H_basis)
    if K is None:  # d < n: P would be larger than Z
        P = None
    elif G is not None:  # the certified Gram's right factor H^T G^{-1}
        P = np.linalg.solve(G, H_basis).T
        Zt = (X @ P).T
    return SemiNmfResult(Z=Zt.T, H=H, iters=iters, P=P)
