"""Sequential variance decomposition of embedding distances over attributes.

Factors enter a least-squares model of the pair distance one at a time; each
factor's sum of squares is the residual drop it causes, and eta squared is
that share of the total variance. The decomposition is order-dependent on
unbalanced data, which callers can surface by varying ``factor_order``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Mapping, Sequence

import numpy as np

from .data import (
    CovariateFrame,
    PairCovariates,
    PairFrame,
    PairRecord,
    Subset,
    filter_subset,
    one_hot,
    pair_columns,
)
from .errors import EmptySubset, SchemaInvalid
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

    def as_dict(self) -> dict:
        """JSON-ready representation."""
        return {
            "subset": self.subset.value,
            "n": self.n,
            "factors": [
                {
                    "name": f.name,
                    "df": f.df,
                    "sum_squares": f.sum_squares,
                    "eta_squared": f.eta_squared,
                }
                for f in self.factors
            ],
            "residual_ss": self.residual_ss,
            "total_ss": self.total_ss,
            "r_squared": self.r_squared,
            "warnings": list(self.warnings),
        }


def _lstsq_rss(x: np.ndarray, d: np.ndarray) -> tuple[float, int]:
    coef, _, rank, _ = np.linalg.lstsq(x, d, rcond=None)
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
    level codes, and the raw value for continuous ones."""
    attr = schema[attr_name]
    if not attr.is_categorical:
        return covs.continuous[attr_name][rows][:, None]
    col = covs.categorical[attr_name]
    codes = col.codes[rows]
    rank = {level: i for i, level in enumerate(attr.levels)}
    observed = sorted(
        np.flatnonzero(np.bincount(codes, minlength=len(col.levels))).tolist(),
        key=lambda c: (rank.get(col.levels[c], len(attr.levels)), col.levels[c]),
    )
    reference = col.code(attr.reference)
    if reference not in observed:
        reference = observed[0]
    return one_hot(codes, [c for c in observed if c != reference])


def anova_distances(
    pairs: PairFrame | Sequence[PairRecord],
    covariates: Mapping[str, PairCovariates],
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
    is dropped with a warning entry instead of failing.
    """
    frame, covs = pair_columns(pairs, covariates)
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
            cols = [
                left[:, i] * right[:, j]
                for i in range(left.shape[1])
                for j in range(right.shape[1])
            ]
            block = np.column_stack(cols) if cols else np.zeros((n, 0))
            blocks.append((f"{a}×{b}", block))

    x = np.ones((n, 1))
    rss_prev, rank_prev = _lstsq_rss(x, d)
    total_ss = rss_prev

    factors: list[FactorResult] = []
    warnings: list[str] = []
    for name, block in blocks:
        if block.shape[1] == 0:
            warnings.append(f"factor {name!r} has a single level in this subset; dropped")
            factors.append(FactorResult(name, 0, 0.0, 0.0))
            continue
        candidate = np.hstack([x, block])
        rss, rank = _lstsq_rss(candidate, d)
        gained = rank - rank_prev
        if gained == 0:
            warnings.append(f"factor {name!r} is collinear with preceding factors; dropped")
            factors.append(FactorResult(name, 0, 0.0, 0.0))
            continue
        if gained < block.shape[1]:
            warnings.append(
                f"factor {name!r}: {block.shape[1] - gained} collinear column(s) absorbed"
            )
        ss = max(0.0, rss_prev - rss)
        eta = ss / total_ss if total_ss > 0 else 0.0
        factors.append(FactorResult(name, gained, ss, eta))
        x, rss_prev, rank_prev = candidate, rss, rank

    return AnovaTable(
        factors=tuple(factors),
        residual_ss=rss_prev,
        total_ss=total_ss,
        r_squared=math.fsum(f.eta_squared for f in factors),
        subset=subset,
        n=n,
        warnings=tuple(warnings),
    )
