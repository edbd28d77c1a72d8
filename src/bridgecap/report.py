"""Static report emission: CSV tables and hand-rolled SVG bar charts.

Charts are assembled from literal SVG elements with fixed number
formatting, so identical inputs always produce identical bytes; no
plotting library gets a chance to embed ids or timestamps. Tables are
written by ``_records.to_csv``, so ``csv.reader`` reads every row back.
"""

from ._records import to_csv

_W, _H = 640, 360
_MARGIN_L, _MARGIN_B, _MARGIN_T = 60, 48, 40


def _svg_header(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W // 2}" y="24" text-anchor="middle" font-family="sans-serif" '
        f'font-size="16">{title}</text>',
    ]


def _bars(parts, pairs, y_max: float, colors):
    plot_w = _W - _MARGIN_L - 20
    plot_h = _H - _MARGIN_T - _MARGIN_B
    n = len(pairs)
    slot = plot_w / max(n, 1)
    bar_w = slot * 0.6
    # y axis with 0 / half / max gridlines
    for frac in (0.0, 0.5, 1.0):
        y = _MARGIN_T + plot_h * (1 - frac)
        parts.append(
            f'<line x1="{_MARGIN_L}" y1="{y:.1f}" x2="{_W - 20}" y2="{y:.1f}" '
            f'stroke="#cccccc" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 8}" y="{y + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{frac * y_max:.2f}</text>'
        )
    for i, (label, value) in enumerate(pairs):
        frac = 0.0 if y_max == 0 else max(0.0, min(1.0, value / y_max))
        h = plot_h * frac
        x = _MARGIN_L + slot * i + (slot - bar_w) / 2
        y = _MARGIN_T + plot_h - h
        parts.append(
            f'<rect x="{x:.1f}" y="{y:.1f}" width="{bar_w:.1f}" height="{h:.1f}" '
            f'fill="{colors[i % len(colors)]}"/>'
        )
        parts.append(
            f'<text x="{x + bar_w / 2:.1f}" y="{y - 4:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{value:.4f}</text>'
        )
        parts.append(
            f'<text x="{x + bar_w / 2:.1f}" y="{_H - _MARGIN_B + 16}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{label}</text>'
        )


def bar_chart_svg(pairs, title: str) -> str:
    """Vertical bars for (label, value) pairs on a 0-1 scale; values shown
    to 4 places."""
    parts = _svg_header(title)
    _bars(parts, list(pairs), 1.0, colors=("#4878a8", "#6aa84f", "#e69138", "#a64d79"))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def metrics_chart_svg(metrics_dict: dict) -> str:
    pairs = [
        ("accuracy", metrics_dict["accuracy"]),
        ("precision", metrics_dict["macro_precision"]),
        ("recall", metrics_dict["macro_recall"]),
        ("F1", metrics_dict["macro_f1"]),
    ]
    return bar_chart_svg(pairs, "Classification metrics")


def distribution_chart_svg(dist_dict: dict) -> str:
    """Histogram over signed class distance; negative bars sit left of
    zero, mirroring a predicted-lower-than-actual reading."""
    mass = _mass(dist_dict)
    pairs = [(f"{d:+d}" if d else "0", mass[d]) for d in sorted(mass)]
    y_max = max(0.0001, max(mass.values()))
    parts = _svg_header("Signed prediction-distance distribution")
    _bars(parts, pairs, y_max, colors=("#4878a8",))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def binarization_chart_svg(reports: list[dict]) -> str:
    """Grouped bars: accuracy/precision/recall/F1 for each threshold."""
    pairs = []
    for rep in reports:
        lv = rep["level"]
        pairs.extend(
            [
                (f"L{lv} acc", rep["accuracy"]),
                (f"L{lv} P", rep["precision"]),
                (f"L{lv} R", rep["recall"]),
                (f"L{lv} F1", rep["f1"]),
            ]
        )
    return bar_chart_svg(pairs, "Binary conversion by threshold level")


# --- CSV tables --------------------------------------------------------------

def metrics_to_csv(metrics_dict: dict) -> str:
    rows = [[key, "", _fmt(metrics_dict[key])]
            for key in ("accuracy", "macro_precision", "macro_recall", "macro_f1")]
    for entry in metrics_dict["per_class"]:
        rows.extend([metric, entry["label"], _fmt(entry[metric])]
                    for metric in ("precision", "recall", "f1"))
    return to_csv(["metric", "class", "value"], rows)


def distribution_to_csv(dist_dict: dict) -> str:
    mass = _mass(dist_dict)
    return to_csv(["signed_distance", "mass"], ([d, _fmt(mass[d])] for d in sorted(mass)))


def binarization_to_csv(reports: list[dict]) -> str:
    rows = []
    for rep in reports:
        counts = rep["matrix"]["counts"]
        rows.append([
            rep["level"], rep["threshold_tons"], rep["boundary"],
            counts[0][0], counts[0][1], counts[1][0], counts[1][1],
            _fmt(rep["accuracy"]), _fmt(rep["precision"]), _fmt(rep["recall"]), _fmt(rep["f1"]),
        ])
    return to_csv(["level", "threshold_tons", "boundary", "tp", "fn", "fp", "tn",
                   "accuracy", "precision", "recall", "f1"], rows)


def _mass(dist_dict: dict) -> dict[int, float]:
    """The mass by signed distance. ValueError unless every key is an
    integer written as ``str`` writes it, so no two keys name one distance."""
    mass = {int(key): value for key, value in dist_dict["mass"].items()}
    if set(map(str, mass)) != dist_dict["mass"].keys():
        raise ValueError(f"mass keys {sorted(dist_dict['mass'])} are not distinct integers")
    return mass


def _fmt(value) -> str:
    return "" if value is None else f"{value:.6f}"
