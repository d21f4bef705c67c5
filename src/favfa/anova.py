"""Sequential variance decomposition of embedding distances over attributes.

Factors enter a least-squares model of the pair distance one at a time; each
factor's sum of squares is the residual drop it causes, and eta squared is
that share of the total variance. The decomposition is order-dependent on
unbalanced data, which callers can surface by varying ``factor_order``.

The model matrix ``M = [1 | block_1 | ... | block_k | d]`` is reduced once to
its R factor, and every nested model is solved on R's columns instead of the
n-row design: R'R = M'M, so the residual sums of squares are the same.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .data import CovariateFrame, PairFrame, Subset, filter_subset, one_hot
from .errors import EmptySubset, SchemaInvalid, ValueOutOfRange
from .schema import AttributeSchema


@dataclass(frozen=True)
class FactorResult:
    name: str
    df: int
    sum_squares: float
    eta_squared: float


@dataclass(frozen=True)
class AnovaTable:
    factors: tuple[FactorResult, ...]
    residual_ss: float
    total_ss: float
    r_squared: float
    subset: Subset
    n: int
    warnings: tuple[str, ...]


#: Rows of the model matrix folded into its R factor at a time.
_FOLD_ROWS = 4096


def r_factor(m: np.ndarray) -> np.ndarray:
    """The R factor of ``m``'s QR decomposition, so that R'R = M'M.

    ``m`` is reduced one fixed ``_FOLD_ROWS`` slice at a time, in order: each
    slice is stacked under the running R and factorized again (the sequential
    tall-skinny QR of Demmel et al. 2012, "Communication-optimal parallel and
    sequential QR and LU factorizations"). Every factorization is small and
    their order is fixed, so R does not depend on the OpenBLAS thread count,
    as one QR or least-squares solve of the whole tall matrix does.
    """
    r = m[:0]
    for start in range(0, len(m), _FOLD_ROWS):
        r = np.linalg.qr(np.vstack([r, m[start : start + _FOLD_ROWS]]), mode="r")
    return r


def _rss(r: np.ndarray, cols: list[int], n: int) -> tuple[float, int]:
    """Residual sum of squares and rank of the least-squares fit of the last
    column of the n-row model matrix on its columns ``cols``, from its R
    factor ``r``: for any v, |M v| = |R v|. The rank cut-off is the one
    ``lstsq`` applies to the n-row matrix itself."""
    x, d = r[:, cols], r[:, -1]
    rcond = np.finfo(float).eps * max(n, len(cols))
    coef, _, rank, _ = np.linalg.lstsq(x, d, rcond=rcond)
    resid = d - x @ coef
    return float(resid @ resid), int(rank)


def _factor_block(
    attr_name: str,
    covs: CovariateFrame,
    rows: np.ndarray,
    schema: AttributeSchema,
) -> np.ndarray:
    """Column block for one factor over the ``rows`` mask: dummies against an
    observed reference level for categorical attributes, one-hot from the
    level codes in code order, and the raw value for continuous ones."""
    attr = schema[attr_name]
    if not attr.is_categorical:
        return covs.continuous[attr_name][rows][:, None]
    col = covs.categorical[attr_name]
    codes = col.codes[rows]
    observed = np.flatnonzero(np.bincount(codes, minlength=len(col.levels))).tolist()
    reference = col.code(attr.reference)
    if reference not in observed:
        reference = observed[0]
    return one_hot(codes, [c for c in observed if c != reference])


def anova_distances(
    frame: PairFrame,
    covs: CovariateFrame,
    schema: AttributeSchema,
    subset: Subset,
    factor_order: Sequence[str] | None = None,
    interactions: bool = False,
) -> AnovaTable:
    """Sequential (type I) sums of squares of pair distances by attribute.

    Factors are added in ``factor_order`` (schema order by default);
    categorical factors contribute one dummy column per observed non-reference
    level, one-hot from the attribute's level codes, and continuous factors a
    single column. With ``interactions`` enabled, pairwise products of the
    main-effect blocks are appended after the main effects. A factor that
    adds no rank (constant in the subset, or collinear with its predecessors)
    is dropped with a warning entry instead of failing. Distances whose
    total sum of squares is beyond the float range raise
    ``ValueOutOfRange``. The table does not depend on the OpenBLAS thread
    count (see ``r_factor``).
    """
    rows = filter_subset(frame, subset)
    if not rows.any():
        raise EmptySubset(f"no pairs with ground truth {subset.ground_truth.value!r}")
    d = frame.distance[rows]
    n = len(d)

    names = list(factor_order) if factor_order is not None else list(schema.names)
    if len(set(names)) != len(names):
        raise SchemaInvalid("factor_order repeats an attribute")
    for name in names:
        if name not in schema:
            raise SchemaInvalid(f"unknown factor {name!r}")

    blocks: list[tuple[str, np.ndarray]] = [
        (name, _factor_block(name, covs, rows, schema)) for name in names
    ]
    if interactions:
        mains = dict(blocks)
        for a, b in combinations(names, 2):
            left, right = mains[a], mains[b]
            block = (left[:, :, None] * right[:, None, :]).reshape(n, -1)
            blocks.append((f"{a}×{b}", block))

    cols = [0]
    with np.errstate(over="ignore", invalid="ignore"):
        r = r_factor(np.hstack([np.ones((n, 1)), *(b for _, b in blocks), d[:, None]]))
        rss_prev, rank_prev = _rss(r, cols, n)
    total_ss = rss_prev
    if not math.isfinite(total_ss):
        raise ValueOutOfRange(f"{subset.value}: the distances' total sum of squares is not finite")
    start = 1  # the next block's first column in the model matrix

    factors: list[FactorResult] = []
    warnings: list[str] = []
    for name, block in blocks:
        width = block.shape[1]
        if width == 0:
            warnings.append(f"factor {name!r} has a single level in this subset; dropped")
            factors.append(FactorResult(name, 0, 0.0, 0.0))
            continue
        candidate = cols + list(range(start, start + width))
        start += width
        rss, rank = _rss(r, candidate, n)
        gained = rank - rank_prev
        if gained == 0:
            warnings.append(f"factor {name!r} is collinear with preceding factors; dropped")
            factors.append(FactorResult(name, 0, 0.0, 0.0))
            continue
        if gained < width:
            warnings.append(f"factor {name!r}: {width - gained} collinear column(s) absorbed")
        ss = max(0.0, rss_prev - rss)
        eta = ss / total_ss if total_ss > 0 else 0.0
        factors.append(FactorResult(name, gained, ss, eta))
        cols, rss_prev, rank_prev = candidate, rss, rank

    return AnovaTable(
        factors=tuple(factors),
        residual_ss=rss_prev,
        total_ss=total_ss,
        r_squared=math.fsum(f.eta_squared for f in factors),
        subset=subset,
        n=n,
        warnings=tuple(warnings),
    )
