from __future__ import annotations

import re

import numpy as np
import pytest

import oracles
from favfa.charts import marginal_effects_svg, qq_plot_svg
from favfa.logit import MarginalEffect


@pytest.mark.parametrize("n", [0, 1, 511, 512, 513, 12_000])
def test_qq_points_equal_two_branch_reference(n):
    values = np.random.default_rng(n).random(n).tolist()
    circles = re.findall(r'<circle cx="([^"]+)" cy="([^"]+)"', qq_plot_svg({"tmr": values}))
    # the one panel's square starts at (50, 60) and is 260 wide
    want = [
        (f"{50 + t * 260:.4f}", f"{60 + 260 - v * 260:.4f}")
        for t, v in oracles.qq_points(values)
    ]
    assert circles == want
    assert len(circles) == min(n, 512)


def effect(attribute, level, estimate, unit=None):
    return MarginalEffect(attribute, level, unit, estimate, 0.01, 0.01, True)


def test_marginal_effects_svg_draws_an_effect_only_one_model_has():
    # a Cross level of an image-scoped attribute that only positive pairs show
    fmr = [effect("gender", "Female", 0.02), effect("age", None, -0.001, "years")]
    tmr = [
        effect("gender", "Female", -0.03),
        effect("expression", "Cross", 0.05),
        effect("age", None, 0.002, "years"),
    ]
    svg = marginal_effects_svg({"tmr": tmr, "fmr": fmr})
    labels = re.findall(r'rotate\([^)]*\)">([^<]*)</text>', svg)
    assert labels == ["gender=Female", "age (per years)", "expression=Cross"]
    assert svg.count("fill-opacity") == len(fmr) + len(tmr)
