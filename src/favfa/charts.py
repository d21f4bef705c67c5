"""Standalone SVG charts. Plain string generation, byte-deterministic."""

from __future__ import annotations

from typing import Mapping, Sequence
from xml.sax.saxutils import escape

import numpy as np

from .anova import AnovaTable
from .logit import MarginalEffect

PALETTE = (
    "#4878cf", "#d65f5f", "#6acc65", "#b47cc7", "#c4ad66",
    "#77bedb", "#8c613c", "#dc7ec0", "#82c6e2", "#ccb974",
)

_FONT = 'font-family="sans-serif"'

#: Order statistics drawn per QQ panel at most, so the SVG stays compact.
_QQ_POINTS = 512


def _fmt(x: float) -> str:
    return f"{x:.4f}"


def _svg(width: int, height: int, body: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
    )
    return "\n".join([head, *body, "</svg>"]) + "\n"


def marginal_effects_svg(effects_by_model: Mapping[str, Sequence[MarginalEffect]]) -> str:
    """One bar group per effect any model has, in the order the models
    (sorted by name) first list it, and one bar per model that has it."""
    models = sorted(effects_by_model)
    series = {
        model: {
            (e.attribute, e.level): e for e in effects_by_model[model]
        }
        for model in models
    }
    labels: dict[tuple[str, str | None], str] = {}
    for model in models:
        for effect in effects_by_model[model]:
            labels.setdefault(
                (effect.attribute, effect.level),
                f"{effect.attribute}={effect.level}" if effect.level is not None
                else f"{effect.attribute} (per {effect.unit})",
            )
    keys = list(labels)

    bar_w, gap, group_gap = 22, 4, 28
    group_w = len(models) * (bar_w + gap) + group_gap
    margin_l, margin_t, plot_h = 60, 50, 220
    width = margin_l + len(keys) * group_w + 30
    height = margin_t + plot_h + 90
    peak = max(
        (abs(e.estimate) for effects in effects_by_model.values() for e in effects),
        default=0.0,
    )
    peak = max(peak, 0.01)
    scale = (plot_h / 2) / peak
    zero_y = margin_t + plot_h / 2

    body = [
        f'<text x="{margin_l}" y="24" {_FONT} font-size="15">'
        "Mean marginal effects (probability points)</text>",
        f'<line x1="{margin_l}" y1="{_fmt(zero_y)}" x2="{width - 20}" '
        f'y2="{_fmt(zero_y)}" stroke="#444444" stroke-width="1"/>',
        f'<text x="8" y="{_fmt(zero_y + 4)}" {_FONT} font-size="11">0.00</text>',
        f'<text x="8" y="{margin_t + 4}" {_FONT} font-size="11">+{_fmt(peak)}</text>',
        f'<text x="8" y="{margin_t + plot_h + 4}" {_FONT} font-size="11">-{_fmt(peak)}</text>',
    ]
    for gi, key in enumerate(keys):
        gx = margin_l + gi * group_w
        for mi, model in enumerate(models):
            effect = series[model].get(key)
            if effect is None:
                continue
            x = gx + mi * (bar_w + gap)
            h = abs(effect.estimate) * scale
            y = zero_y - h if effect.estimate >= 0 else zero_y
            opacity = "1.0" if effect.significant else "0.35"
            color = PALETTE[mi % len(PALETTE)]
            body.append(
                f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{bar_w}" '
                f'height="{_fmt(h)}" fill="{color}" fill-opacity="{opacity}"/>'
            )
        body.append(
            f'<text x="{_fmt(gx)}" y="{margin_t + plot_h + 20}" {_FONT} '
            f'font-size="10" transform="rotate(30 {_fmt(gx)} '
            f'{margin_t + plot_h + 20})">{escape(labels[key])}</text>'
        )
    for mi, model in enumerate(models):
        lx = margin_l + mi * 110
        ly = height - 16
        color = PALETTE[mi % len(PALETTE)]
        body.append(f'<rect x="{lx}" y="{ly - 10}" width="12" height="12" fill="{color}"/>')
        body.append(
            f'<text x="{lx + 18}" y="{ly}" {_FONT} font-size="12">{escape(model)}</text>'
        )
    return _svg(width, height, body)


def eta_squared_svg(tables: Mapping[str, AnovaTable]) -> str:
    names = sorted(tables)
    factor_names: list[str] = []
    for table in tables.values():
        for factor in table.factors:
            if factor.name not in factor_names:
                factor_names.append(factor.name)

    bar_w, gap = 70, 50
    margin_l, margin_t, plot_h = 60, 50, 240
    width = margin_l + len(names) * (bar_w + gap) + 160
    height = margin_t + plot_h + 50
    peak = max((t.r_squared for t in tables.values()), default=0.0)
    peak = max(peak, 0.05)
    scale = plot_h / peak
    base_y = margin_t + plot_h

    body = [
        f'<text x="{margin_l}" y="24" {_FONT} font-size="15">'
        "Distance variance explained per attribute</text>",
        f'<line x1="{margin_l}" y1="{base_y}" x2="{width - 150}" y2="{base_y}" '
        f'stroke="#444444" stroke-width="1"/>',
    ]
    for bi, name in enumerate(names):
        table = tables[name]
        x = margin_l + bi * (bar_w + gap)
        y = float(base_y)
        for factor in table.factors:
            h = factor.eta_squared * scale
            if h <= 0:
                continue
            y -= h
            color = PALETTE[factor_names.index(factor.name) % len(PALETTE)]
            body.append(
                f'<rect x="{x}" y="{_fmt(y)}" width="{bar_w}" height="{_fmt(h)}" '
                f'fill="{color}"/>'
            )
        body.append(
            f'<text x="{x}" y="{_fmt(y - 6)}" {_FONT} font-size="11">'
            f'R²={table.r_squared:.3f}</text>'
        )
        body.append(
            f'<text x="{x}" y="{base_y + 18}" {_FONT} font-size="12">{escape(name)}</text>'
        )
    for fi, factor_name in enumerate(factor_names):
        lx = width - 140
        ly = margin_t + 16 * fi
        color = PALETTE[fi % len(PALETTE)]
        body.append(f'<rect x="{lx}" y="{ly}" width="12" height="12" fill="{color}"/>')
        body.append(
            f'<text x="{lx + 18}" y="{ly + 10}" {_FONT} font-size="12">'
            f'{escape(factor_name)}</text>'
        )
    return _svg(width, height, body)


def qq_plot_svg(panels: Mapping[str, Sequence[float]]) -> str:
    """One QQ panel per named residual vector: ``m = min(n, _QQ_POINTS)``
    evenly spaced order statistics, the ``(i * n) // m``-th for i < m (every
    one when n <= m), against their uniform quantiles."""
    names = sorted(panels)
    size, margin, spacing = 260, 50, 40
    width = margin + len(names) * (size + spacing)
    height = size + 2 * margin

    body = [
        f'<text x="{margin}" y="26" {_FONT} font-size="15">'
        "Scaled residuals vs uniform quantiles</text>"
    ]
    for pi, name in enumerate(names):
        ox = margin + pi * (size + spacing)
        oy = margin + 10
        values = np.sort(np.asarray(panels[name])).tolist()
        n = len(values)
        m = min(n, _QQ_POINTS)
        ranks = [(i * n) // m for i in range(m)]
        body.append(
            f'<rect x="{ox}" y="{oy}" width="{size}" height="{size}" fill="none" '
            f'stroke="#444444"/>'
        )
        body.append(
            f'<line x1="{ox}" y1="{oy + size}" x2="{ox + size}" y2="{oy}" '
            f'stroke="#999999" stroke-dasharray="4 3"/>'
        )
        for rank in ranks:
            cx = ox + (rank + 0.5) / n * size
            cy = oy + size - values[rank] * size
            body.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="1.5" fill="#4878cf"/>')
        body.append(
            f'<text x="{ox}" y="{oy + size + 24}" {_FONT} font-size="12">{escape(name)}</text>'
        )
    return _svg(width, height, body)
