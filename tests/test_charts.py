from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

import numpy as np
import pytest

import oracles
from favfa.anova import AnovaTable, FactorResult
from favfa.charts import eta_squared_svg, marginal_effects_svg, qq_plot_svg
from favfa.data import Subset
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


#: Labels holding every character XML text escapes, both quotes, and text
#: that is already an entity.
AWKWARD = ("a&b", "<x>", 'say "hi"', "it's", "&amp;", "<&>\"'&amp;")

_SVG_TEXT = "{http://www.w3.org/2000/svg}text"


def assert_labels_escaped(svg, labels):
    """Each label is written as ``xml.sax.saxutils.escape`` writes it, as
    the whole text of a ``<text>`` element, and parses back to itself."""
    for label in labels:
        assert f">{escape(label)}</text>" in svg, label
    texts = {el.text for el in ET.fromstring(svg).iter(_SVG_TEXT)}
    assert set(labels) <= texts


def test_marginal_effects_svg_escapes_attribute_and_level_names():
    attributes, levels = AWKWARD[:3], AWKWARD[3:]
    effects = [effect(a, lv, 0.01) for a, lv in zip(attributes, levels)]
    svg = marginal_effects_svg({"t&m<r>": effects})
    labels = [f"{a}={lv}" for a, lv in zip(attributes, levels)]
    assert_labels_escaped(svg, [*labels, "t&m<r>"])


def test_eta_squared_svg_escapes_factor_names():
    factors = tuple(FactorResult(name, 1, 0.5, 0.1) for name in AWKWARD)
    table = AnovaTable(factors, 1.0, 2.0, 0.6, Subset.POSITIVES, 100, ())
    svg = eta_squared_svg({"pos<&>": table})
    assert_labels_escaped(svg, [*AWKWARD, "pos<&>"])


def test_qq_plot_svg_escapes_panel_names():
    svg = qq_plot_svg({name: [0.25, 0.5, 0.75] for name in AWKWARD})
    assert_labels_escaped(svg, AWKWARD)
