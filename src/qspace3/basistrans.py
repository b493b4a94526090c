"""The two mutually inverse basis changes: coefficients diagonalizing the
orbital Casimir on the sign-doubled tensor basis, and coefficients
diagonalizing the coordinate X3 on the diagonal-Casimir basis.

Every table and completeness profile reads its rows from the lattice
matrix of qspecial._doubled_rows.

Phase convention: the tensor-side coefficients carry an extra (-1)^(m_t)
relative to the bare weighted-function formula.  The truncated Casimir block
has strictly positive off-diagonals, and its eigenvectors alternate in sign
down the m_t chain; the alternating factor is exactly the gauge that makes
the printed three-term recursion hold with positive coefficients on both
neighbors.  All isometry statements are insensitive to it.
"""

import json
import math
from dataclasses import dataclass, field, replace

import mpmath as mp
import numpy as np
from mpmath.libmp import (fone, from_float, mpf_add, mpf_mul, mpf_sub,
                          mpf_sum, round_nearest as _RN, to_float)

from .context import QContext, _at_ctx_dps
from .errors import CoverageError, DomainError
from .qarith import _zero
from .qspecial import (_doubled_rows, _lattice_matrix, _raw_site_rows, _site,
                       p_tilde)
from .repspace import (_casimir_chain, casimir_eigenvalue, chain_entries,
                       x3_block, r0_from_z0)

__all__ = [
    "c_coeff", "d_coeff", "check_t2", "check_x3_recursion",
    "TransformTable", "build_transform", "completeness_check",
]


@_at_ctx_dps
def c_coeff(l: int, m: int, m_t: int, sigma: int, ctx: QContext):
    """Coefficient of |m_t, m_k, sigma> in the Casimir eigenstate (l, m).

    Vanishes for m_t > min(0, m) and for l < |m| (both valid zeros).
    """
    if sigma not in (1, -1):
        raise DomainError("sigma must be +1 or -1")
    am = abs(m)
    if l < am or m_t > min(0, m):
        return _zero(ctx)
    x, pref = _site(m, m_t, sigma, ctx.qval())
    return ctx.out((-1)**m_t * pref * p_tilde(l, am, x, ctx))


@_at_ctx_dps
def d_coeff(M: int, l: int, m: int, nu: int, sigma: int, ctx: QContext):
    """Coefficient of |M, l, m> in the X3 eigenstate with eigenvalue
    sigma r0 q^(2 nu - 1); requires nu <= M and m >= nu - M."""
    if sigma not in (1, -1):
        raise DomainError("sigma must be +1 or -1")
    if nu > M or m < nu - M:
        raise DomainError(
            f"labels must satisfy nu <= M and m >= nu - M, got "
            f"nu={nu}, M={M}, m={m}")
    am = abs(m)
    if l < am:
        return _zero(ctx)
    x, pref = _site(m, nu - M, sigma, ctx.qval())
    return ctx.out(pref * p_tilde(l, am, x, ctx))


def check_t2(l: int, m: int, m_t: int, sigma: int, ctx: QContext) -> float:
    """Relative residual of the Casimir three-term recursion in m_t at one
    coefficient site, a float in both precision modes."""
    q = float(ctx.q)
    diag, up = chain_entries(m, m_t, q)
    _, dn = chain_entries(m, m_t - 1, q)
    lhs = (q**(2 * l + 2) + q**(-2 * l) - (q * q + 1) - diag) \
        * c_coeff(l, m, m_t, sigma, ctx)
    rhs = up * c_coeff(l, m, m_t + 1, sigma, ctx) \
        + dn * c_coeff(l, m, m_t - 1, sigma, ctx)
    return float(abs(lhs - rhs) / max(1.0, abs(lhs)))


def check_x3_recursion(M: int, l: int, m: int, nu: int, sigma: int,
                       ctx: QContext) -> float:
    """Relative residual of the X3 three-term recursion in l at one
    coefficient site (l >= |m|), at the coordinate scale z0 = 1."""
    if l < abs(m):
        raise DomainError(f"the X3 recursion needs l >= |m|, got l={l}, m={m}")
    r0 = r0_from_z0(1.0, ctx)
    z = sigma * r0 * float(ctx.q)**(2 * nu - 1)
    E, _ = x3_block(M, m, l + 1, r0, ctx)
    k = l - abs(m)                  # E[k] couples l and l + 1
    lhs = z * d_coeff(M, l, m, nu, sigma, ctx)
    rhs = E[k] * d_coeff(M, l + 1, m, nu, sigma, ctx)
    if k > 0:
        rhs += E[k - 1] * d_coeff(M, l - 1, m, nu, sigma, ctx)
    return float(abs(lhs - rhs) / max(1.0, abs(lhs)))


# ---------------------------------------------------------------------------
# transform tables
# ---------------------------------------------------------------------------

@dataclass
class TransformTable:
    direction: str                   # "mtk_to_lm" | "lm_to_x3"
    fixed: dict
    row_labels: list
    col_labels: list
    matrix: np.ndarray
    q: float
    truncations: dict
    gram_defect: float
    congruence_defect: float
    meta: dict = field(default_factory=dict)

    def to_json_dict(self):
        return {
            "schema": "qspace3/1",
            "direction": self.direction,
            "fixed": self.fixed,
            "q": self.q,
            "truncations": self.truncations,
            "gram_defect": self.gram_defect,
            "congruence_defect": self.congruence_defect,
            "rows": [list(r) if isinstance(r, tuple) else r
                     for r in self.row_labels],
            "cols": [list(c) if isinstance(c, tuple) else c
                     for c in self.col_labels],
            "meta": self.meta,
        }

    def to_json(self):
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)

    def write_csv(self, fh):
        import csv
        w = csv.writer(fh)
        w.writerow(["row"] + [repr(c) for c in self.col_labels])
        for lab, row in zip(self.row_labels, self.matrix):
            w.writerow([repr(lab)] + [f"{v:.17g}" for v in row])


def _congruence_depth(q: float) -> int:
    """Chain depth pushing the Casimir-form tail below ~1e-9."""
    return 4 + max(8, int(math.ceil(9.5 * math.log(10.0)
                                    / (2.0 * math.log(q)))))


def _casimir_congruence_defect(m, l_values, cd, ctx):
    """max |U^T A2 U - diag(q[l][l+1])| over a depth-cd interior window,
    entrywise normalized by the larger Casimir value involved.

    The columns U and the chain block A are evaluated at 40 digits: the
    chain entries grow like q^(-4 m_t) while the coefficients decay, so the
    product A U loses ~q^(2 cd) digits to cancellation and survives only in
    extended precision.  Two O(L n) pieces are formed there: the residual
    R = A U - U Lam (Lam the Casimir values), one block application per
    column, and the diagonal (U_K^T U_K)_aa - 1 over the kept rows K, where
    a sum near 1 cancels down to the tail.  On K the deviation is then

        U_K^T A U_K - Lam = (U_K^T U_K - I) Lam + U_K^T R_K,

    and its remaining parts cancel nothing, so U_K and R_K are rounded to
    binary64 and the products taken with numpy.  That moves each normalized
    off-diagonal entry by a few binary64 roundings (~1e-16), far below the
    tail-limited defect.

    The block A acts on each sign half alone, and the sigma = -1 half of a
    column is its sigma = +1 half times (-1)^(l-|m|), exactly (see
    _doubled_rows).  So the 40-digit work runs on the sigma = +1 half only,
    and the sigma = -1 rows of U_K and R_K are its rounded values negated
    in binary64, which is exact (a zero would turn -0.0, which the products
    and abs() read as 0).  That work runs on libmp tuples (_raw_columns).
    """
    q = float(ctx.q)
    ectx = replace(ctx, precision="extended")
    top = min(0, m)
    mts = list(range(top - cd, top + 1))
    lams = np.array([casimir_eigenvalue(l, ectx) for l in l_values])
    with mp.workdps(ectx.dps):
        prec = mp.mp.prec
        qm = mp.mpf(q)
        rows = list(_raw_site_rows(m, mts, l_values, qm, ectx, True, prec))
        D, E = ([v._mpf_ for v in part] for part in _casimir_chain(m, cd, qm))
    U, R, gram_diag = _raw_columns(rows, D, E, lams.tolist(), prec)
    odd = np.array([(l - abs(m)) % 2 == 1 for l in l_values])
    U_K = np.concatenate([U, np.where(odd, -U, U)])
    R_K = np.concatenate([R, np.where(odd, -R, R)])
    gram_minus_eye = U_K.T @ U_K
    np.fill_diagonal(gram_minus_eye, gram_diag)
    dev = gram_minus_eye * lams[None, :] + U_K.T @ R_K
    scale = np.maximum(np.maximum.outer(lams, lams), 1.0)
    return float(np.abs(dev / scale).max())


_MARGIN = 2       # the deepest sites of each sign half, dropped from K


def _raw_columns(rows, D, E, lams, prec):
    """The sigma = +1 halves of the congruence pieces, from the 40-digit
    rows (one list of libmp tuples per chain site, ascending) and the
    chain block (diagonal D, couplings E, as tuples), each operation
    rounded to nearest at prec bits in the order of the mpf expressions
        AV = V D + V_lower E + V_upper E,   R = AV - lam V:
    U and R over the kept sites (a row each) and the columns, rounded to
    binary64 once, and per column (U_K^T U_K)_aa - 1 over both halves."""
    n = len(rows)
    kept = range(_MARGIN, n)
    U = np.empty((n - _MARGIN, len(lams)))
    R = np.empty_like(U)
    gram_diag = np.empty(len(lams))
    for c, lam in enumerate(lams):
        V = [row[c] for row in rows]
        lam = from_float(lam)
        sq = []
        for r, j in enumerate(kept):
            v = V[j]
            av = mpf_add(mpf_mul(v, D[j], prec, _RN),
                         mpf_mul(V[j - 1], E[j - 1], prec, _RN), prec, _RN)
            if j + 1 < n:
                av = mpf_add(av, mpf_mul(V[j + 1], E[j], prec, _RN),
                             prec, _RN)
            # rnd by keyword: the second positional parameter is strict
            U[r, c] = to_float(v, rnd=_RN)
            R[r, c] = to_float(mpf_sub(av, mpf_mul(v, lam, prec, _RN),
                                       prec, _RN), rnd=_RN)
            sq.append(mpf_mul(v, v, prec, _RN))
        # both halves' squares, in the order of the rows of U_K
        gram_diag[c] = to_float(mpf_sub(mpf_sum(sq + sq, prec, _RN), fone,
                                        prec, _RN), rnd=_RN)
    return U, R, gram_diag


def build_transform(direction, m: int, ctx: QContext, M: int = 0,
                    l_max: int = 40, depth: int = 60, z0: float = 1.0,
                    nu_depth: int = 6) -> TransformTable:
    """Assemble a coefficient table over the sign-doubled basis and measure
    its isometry (Gram) and eigen-reproduction (congruence) defects.

    direction 1 ("mtk_to_lm"): columns indexed by l = |m| .. l_max
    diagonalize the fixed-m Casimir chain; rows run over (sigma, m_t).
    direction 2 ("lm_to_x3"): columns indexed by (sigma, nu) diagonalize the
    fixed-(M, m) coordinate block; rows run over l.

    The congruence defect is evaluated on a depth-limited interior window
    (deep chain sites cancel beyond binary64 in the quadratic form).
    """
    direction = {1: "mtk_to_lm", 2: "lm_to_x3"}.get(direction)
    if direction is None:
        raise DomainError("direction must be 1 or 2")
    q = float(ctx.q)
    am = abs(m)
    if l_max < am:
        raise CoverageError(f"l_max={l_max} cannot cover |m|={am}")
    if (depth < _MARGIN) if direction == "mtk_to_lm" else (nu_depth < 0):
        raise CoverageError(f"the {direction} window keeps no site to "
                            f"measure: depth={depth}, nu_depth={nu_depth}")
    if direction == "mtk_to_lm" and 2 * (depth + 1) < l_max - am + 1:
        # fewer rows than columns: U^T U has rank below the identity's, so
        # the Gram defect is at least 1 and measures nothing
        raise CoverageError(
            f"the {direction} window has {2 * (depth + 1)} sites for "
            f"{l_max - am + 1} degrees: depth={depth}, l_max={l_max}, m={m}")

    if direction == "mtk_to_lm":
        l_values = list(range(am, l_max + 1))
        top = min(0, m)
        mts = list(range(top - depth, top + 1))
        U = np.array(_doubled_rows(m, mts, l_values, q, ctx, True),
                     dtype=float)
        G = U.T @ U
        gram = float(np.abs(G - np.eye(len(l_values))).max())
        # the degree-l eigenvector is concentrated around m_t ~ -(l-|m|)/2,
        # so the congruence window deepens with the covered degree range
        cd = min(depth, (l_max - am + 1) // 2 + _congruence_depth(q))
        cong = _casimir_congruence_defect(m, l_values, cd, ctx)
        rows = [(s, mt) for s in (1, -1) for mt in mts]
        return TransformTable(
            direction, {"m": m}, rows, l_values, U, q,
            {"depth": depth, "l_max": l_max, "congruence_depth": cd},
            gram, cong)

    # lm_to_x3
    r0 = r0_from_z0(z0, ctx)
    nu_top = M + min(0, m)
    nus = list(range(nu_top - nu_depth, nu_top + 1))
    ls = list(range(am, l_max + 1))
    cols = [(s, nu) for s in (1, -1) for nu in nus]
    # one row per l, built in C order: a transposed view would send the
    # products below through other BLAS kernels, which round differently
    U = np.array(list(zip(*_doubled_rows(m, [nu - M for nu in nus], ls, q,
                                         ctx, False))), dtype=float)
    G = U.T @ U
    gram = float(np.abs(G - np.eye(len(cols))).max())
    E, _ = x3_block(M, m, l_max, r0, ctx)
    A = np.diag(E, 1) + np.diag(E, -1)
    targets = np.array([s * r0 * q**(2 * nu - 1) for (s, nu) in cols])
    C = U.T @ A @ U
    cong = float(np.abs(C - np.diag(targets)).max() / max(abs(targets).max(), 1.0))
    return TransformTable(
        direction, {"M": M, "m": m}, ls, cols, U, q,
        {"l_max": l_max, "nu_depth": nu_depth, "z0": z0, "r0": r0},
        gram, cong)


_COMPLETE_DEPTH = 4      # chain sites completeness_check samples below the top


@_at_ctx_dps
def completeness_check(m: int, ctx: QContext, l_max: int = 40) -> dict:
    """Evaluate the degree-summed completeness for sampled lattice pairs.

    Returns the worst |sum - delta delta| over diagonal and off-diagonal
    samples at l_max, plus the staged defects at l_max/4, l_max/2, l_max
    (convergence profile; expected to decrease monotonically).  One lattice
    matrix at l_max holds every site sampled; a stage's sums are entries of
    the Gram product of its columns l <= the stage's l_max.
    """
    top = min(0, m)
    mts = list(range(top - _COMPLETE_DEPTH, top + 1))
    U = _lattice_matrix(m, mts, range(abs(m), l_max + 1), ctx)
    sites = [(mt, s) for s in (1, -1) for mt in mts]     # the rows of U
    # every site with itself, then each (mt, 1) above the deepest with its
    # lower neighbour and with (mt, -1), from the top down
    samples = [(a, a) for mt in mts[::-1] for a in ((mt, 1), (mt, -1))]
    samples += [((mt, 1), b) for mt in mts[:0:-1]
                for b in ((mt - 1, 1), (mt, -1))]
    stages = []
    for lm in (max(abs(m), l_max // 4), max(abs(m), l_max // 2), l_max):
        cols = U[:, :lm - abs(m) + 1]
        G = cols @ cols.T
        per = []
        for a, b in samples:
            val = G[sites.index(a), sites.index(b)]
            target = 1.0 if a == b else 0.0
            per.append({"pair": [list(a), list(b)], "sum": float(val),
                        "defect": float(abs(val - target))})
        stages.append({"l_max": lm,
                       "max_defect": max(p["defect"] for p in per)})
    return {
        "schema": "qspace3/1",
        "m": m,
        "l_max": l_max,
        "n_pairs": len(samples),
        "max_defect": stages[-1]["max_defect"],
        "stages": stages,
        "samples": per,
    }
