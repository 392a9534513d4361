"""Static SVG line plots of sweep summaries, byte-deterministic by design.

The writer emits hand-assembled SVG (no plotting library, no timestamps, no
generated ids), so regenerating from the same CSV produces identical bytes.
One <polyline> per scheme carries the mean curve; a translucent <path> band
shows mean +/- std.
"""
from __future__ import annotations

import math
from pathlib import Path

# header of summary.csv: the sweep writes it, the parser below checks it
SUMMARY_COLUMNS = (
    "sweep_variable",
    "sweep_value",
    "scheme",
    "num_realizations",
    "mean_sum_secrecy",
    "std_sum_secrecy",
)

WIDTH, HEIGHT = 720, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 78, 24, 24, 58
PALETTE = ("#1f6fb4", "#d95f02", "#2c8c4b", "#7a52a8", "#b22222", "#6b6b6b")
# escapes CSV names as XML text (xml.sax.saxutils imports urllib.request: +7 MB)
XML_TEXT = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})

AXIS_LABELS = {
    "p_max_dbm": "maximum transmit power (dBm)",
    "num_users": "number of users",
}


class CsvFormatError(ValueError):
    """Summary CSV did not match the documented schema."""


def _parse_summary(csv_path) -> tuple[str, dict[str, list[tuple[float, float, float]]]]:
    with open(csv_path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise CsvFormatError("line 1: empty file")
    header = lines[0].split(",")
    if tuple(header) != SUMMARY_COLUMNS:
        raise CsvFormatError(
            f"line 1: expected header {','.join(SUMMARY_COLUMNS)!r}, got {lines[0]!r}"
        )
    variable = None
    series: dict[str, list[tuple[float, float, float]]] = {}
    for i, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != len(SUMMARY_COLUMNS):
            raise CsvFormatError(f"line {i}: expected {len(SUMMARY_COLUMNS)} fields")
        var, value, scheme, count, mean, std = parts
        if variable is None:
            variable = var
        if count == "0" and mean == std == "":
            continue  # every run of this group failed: no point to draw
        try:
            x = float(value)
            m = float(mean)
            s = float(std)
        except ValueError as exc:
            raise CsvFormatError(f"line {i}: {exc}") from None
        if not all(map(math.isfinite, (x, m, s))):
            raise CsvFormatError(f"line {i}: non-finite value, mean or std")
        series.setdefault(scheme, []).append((x, m, s))
    if not series:
        raise CsvFormatError("line 2: no data rows")
    return variable or "", series


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def _num(v: float) -> str:
    return format(v, ".2f")


def emit_plot(csv_path, out_path=None) -> Path:
    """Render a summary CSV into a standalone SVG; returns the output path."""
    csv_path = Path(csv_path)
    variable, series = _parse_summary(csv_path)
    out = Path(out_path) if out_path is not None else csv_path.with_suffix(".svg")

    xs = sorted({x for pts in series.values() for (x, _, _) in pts})
    x_lo, x_hi = min(xs), max(xs)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    y_vals = [m + sgn * s for pts in series.values() for (_, m, s) in pts for sgn in (-1, 1)]
    y_lo = min(0.0, min(y_vals))
    y_hi = max(y_vals)
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    y_pad = 0.05 * (y_hi - y_lo)
    y_hi += y_pad

    def sx(x: float) -> float:
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * (WIDTH - MARGIN_L - MARGIN_R)

    def sy(y: float) -> float:
        return HEIGHT - MARGIN_B - (y - y_lo) / (y_hi - y_lo) * (HEIGHT - MARGIN_T - MARGIN_B)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
    ]

    # axes and ticks
    x0, y0 = MARGIN_L, HEIGHT - MARGIN_B
    parts.append(
        f'<line x1="{x0}" y1="{y0}" x2="{WIDTH - MARGIN_R}" y2="{y0}" stroke="#000000"/>'
    )
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{MARGIN_T}" stroke="#000000"/>')
    for tx in _ticks(x_lo, x_hi):
        px = sx(tx)
        parts.append(f'<line x1="{_num(px)}" y1="{y0}" x2="{_num(px)}" y2="{y0 + 5}" stroke="#000000"/>')
        parts.append(
            f'<text x="{_num(px)}" y="{y0 + 20}" font-size="12" text-anchor="middle" '
            f'font-family="sans-serif">{format(tx, ".3g")}</text>'
        )
    for ty in _ticks(y_lo, y_hi):
        py = sy(ty)
        parts.append(f'<line x1="{x0 - 5}" y1="{_num(py)}" x2="{x0}" y2="{_num(py)}" stroke="#000000"/>')
        parts.append(
            f'<text x="{x0 - 9}" y="{_num(py + 4)}" font-size="12" text-anchor="end" '
            f'font-family="sans-serif">{format(ty, ".3g")}</text>'
        )
    parts.append(
        f'<text x="{(MARGIN_L + WIDTH - MARGIN_R) / 2:.1f}" y="{HEIGHT - 16}" font-size="14" '
        'text-anchor="middle" font-family="sans-serif">'
        f"{AXIS_LABELS.get(variable, variable).translate(XML_TEXT)}</text>"
    )
    parts.append(
        f'<text x="18" y="{(MARGIN_T + HEIGHT - MARGIN_B) / 2:.1f}" font-size="14" '
        f'text-anchor="middle" font-family="sans-serif" '
        f'transform="rotate(-90 18 {(MARGIN_T + HEIGHT - MARGIN_B) / 2:.1f})">'
        "mean sum secrecy rate (bits/s/Hz)</text>"
    )

    # std bands first so the mean lines stay on top
    for idx, (scheme, pts) in enumerate(series.items()):
        color = PALETTE[idx % len(PALETTE)]
        pts = sorted(pts)
        upper = [(sx(x), sy(m + s)) for (x, m, s) in pts]
        lower = [(sx(x), sy(m - s)) for (x, m, s) in reversed(pts)]
        d = "M " + " L ".join(f"{_num(px)} {_num(py)}" for px, py in upper + lower) + " Z"
        parts.append(f'<path d="{d}" fill="{color}" fill-opacity="0.15" stroke="none"/>')

    for idx, (scheme, pts) in enumerate(series.items()):
        color = PALETTE[idx % len(PALETTE)]
        pts = sorted(pts)
        coords = " ".join(f"{_num(sx(x))},{_num(sy(m))}" for (x, m, _) in pts)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        # legend swatch and label
        ly = MARGIN_T + 10 + 18 * idx
        parts.append(
            f'<line x1="{WIDTH - 170}" y1="{ly}" x2="{WIDTH - 146}" y2="{ly}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{WIDTH - 140}" y="{ly + 4}" font-size="12" '
            f'font-family="sans-serif">{scheme.translate(XML_TEXT)}</text>'
        )

    parts.append("</svg>")
    svg = "\n".join(parts) + "\n"
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(svg)
    return out
