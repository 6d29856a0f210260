"""Rendering of tuning reports: a markdown comparison table and a grouped
bar chart emitted as plain SVG text.

Both renderers consume the report's JSON dictionary (the single source of
truth for every displayed number) and are byte-deterministic for a fixed
report. Accuracies are shown as percentages with two decimals; per-column
maxima are bolded, with ties at display precision all bolded.
"""

from __future__ import annotations

from .config import METHOD_COLUMNS, check_reference_label
from .config import SCHEMA as CONFIG_SCHEMA
from .schema import SchemaViolation, load_schema, validate

SCHEMA = load_schema("report.schema.json")

_VOLATILE_KEYS = frozenset({"duration_seconds", "total_seconds", "created_unix"})

_METHOD_COLORS = ("#7f7f7f", "#1f77b4", "#ff7f0e")  # Baseline, GS, RS
_REFERENCE_COLORS = ("#2ca02c", "#d62728", "#9467bd", "#8c564b", "#e377c2")


def _xml_text(text: str) -> str:
    """``text`` escaped for an SVG text node (``xml.sax.saxutils.escape``
    does the same, but importing it loads ``urllib.request``)."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def strip_volatile(value):
    """Copy of a report structure without timing/timestamp fields, for
    comparing two runs that should agree on everything else."""
    if isinstance(value, dict):
        return {k: strip_volatile(v) for k, v in value.items() if k not in _VOLATILE_KEYS}
    if isinstance(value, list):
        return [strip_volatile(v) for v in value]
    return value


def check_report(report) -> None:
    """Raise ``ValueError`` naming the first field that breaks the report or
    config schema, or the first reference label ``check_reference_label`` refuses."""
    try:
        validate(report, SCHEMA)
        validate(report["config"], CONFIG_SCHEMA, "config")
    except SchemaViolation as exc:
        raise ValueError(f"not a tabtune report: {exc}") from None
    for label in report["config"].get("references", {}):
        check_reference_label(label)


def _method_columns(report: dict):
    """Ordered (label, {family: percent}) columns: Baseline, GS, RS, then the
    references echoed in the report's config. A column is known by its
    position, not its label."""
    references = report.get("config", {}).get("references") or {}
    columns = [(label, {}) for label in METHOD_COLUMNS]
    for entry in report["families"]:
        family = entry["family"]
        columns[0][1][family] = entry["baseline"]["mean_accuracy"] * 100.0
        columns[1][1][family] = entry["grid"]["best"]["mean_accuracy"] * 100.0
        columns[2][1][family] = entry["random"]["best"]["mean_accuracy"] * 100.0
    for label in references:
        columns.append((label, {f: float(v) for f, v in references[label].items()}))
    return columns


def render_table(report: dict) -> str:
    """Markdown table, one row per family in report order.

    Reference columns carry the externally supplied percentages echoed in
    the report config; families they do not cover render as "-". A ``|``
    in a label is escaped as ``\\|``.
    """
    columns = _method_columns(report)
    families = [entry["family"] for entry in report["families"]]
    header = ["Classifier"] + [label.replace("|", r"\|") for label, _ in columns]
    rows = [[family] for family in families]
    for _, values in columns:
        cells = {f: f"{values[f]:.2f}" for f in families if f in values}
        top = max(cells.values(), key=float, default=None)
        for row, family in zip(rows, families):
            cell = cells.get(family, "-")
            row.append(f"**{cell}**" if cell == top else cell)
    lines = ["| " + " | ".join(header) + " |", "|---" * len(header) + "|"]
    lines += ["| " + " | ".join(row) + " |" for row in rows]
    return "\n".join(lines) + "\n"


def render_chart(report: dict) -> str:
    """Grouped bar chart as SVG text: one group per family, one bar per
    method, y axis fixed to 0-100%. Zero accuracies keep their (zero-height)
    bar element and label. Labels are escaped as XML text."""
    columns = _method_columns(report)
    families = [entry["family"] for entry in report["families"]]
    # reference columns cycle the palette
    colors = list(_METHOD_COLORS) + [_REFERENCE_COLORS[i % len(_REFERENCE_COLORS)]
                                     for i in range(len(columns) - len(_METHOD_COLORS))]

    margin_left, margin_top, margin_bottom, margin_right = 56, 46, 58, 16
    plot_height = 240.0
    bar_width, bar_gap, group_gap = 16, 3, 22
    n_methods = len(columns)
    group_width = n_methods * bar_width + (n_methods - 1) * bar_gap
    width = margin_left + len(families) * (group_width + group_gap) + margin_right
    height = margin_top + plot_height + margin_bottom
    baseline_y = margin_top + plot_height

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="18" text-anchor="middle" '
        'font-family="sans-serif" font-size="13">'
        "Cross-validated accuracy by classifier and tuning method</text>",
    ]

    # y gridlines and tick labels every 20%
    for tick in range(0, 101, 20):
        y = baseline_y - tick / 100.0 * plot_height
        out.append(
            f'<line x1="{margin_left}" y1="{y:.1f}" x2="{width - margin_right:.0f}" '
            f'y2="{y:.1f}" stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{margin_left - 6}" y="{y + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10">{tick}</text>'
        )
    out.append(
        f'<text x="14" y="{margin_top + plot_height / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11" '
        f'transform="rotate(-90 14 {margin_top + plot_height / 2:.1f})">accuracy (%)</text>'
    )

    legend_x = float(margin_left)
    for (label, _), color in zip(columns, colors):
        out.append(
            f'<rect x="{legend_x:.1f}" y="26" width="10" height="10" fill="{color}"/>'
        )
        out.append(
            f'<text x="{legend_x + 14:.1f}" y="35" font-family="sans-serif" '
            f'font-size="10">{_xml_text(label)}</text>'
        )
        legend_x += 24 + 6.5 * len(label)

    for method_pos, ((label, values), color) in enumerate(zip(columns, colors)):
        for group_pos, family in enumerate(families):
            if family not in values:
                continue
            percent = values[family]
            x = (
                margin_left
                + group_gap / 2
                + group_pos * (group_width + group_gap)
                + method_pos * (bar_width + bar_gap)
            )
            bar_height = percent / 100.0 * plot_height
            out.append(
                f'<rect class="bar" x="{x:.1f}" y="{baseline_y - bar_height:.1f}" '
                f'width="{bar_width}" height="{bar_height:.1f}" fill="{color}">'
                f"<title>{family} {_xml_text(label)} {percent:.2f}%</title></rect>"
            )

    for group_pos, family in enumerate(families):
        center = (
            margin_left
            + group_gap / 2
            + group_pos * (group_width + group_gap)
            + group_width / 2
        )
        out.append(
            f'<text x="{center:.1f}" y="{baseline_y + 16:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{family}</text>'
        )
    out.append(
        f'<text x="{margin_left + (width - margin_left - margin_right) / 2:.1f}" '
        f'y="{height - 14:.1f}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="11">classifier</text>'
    )
    out.append(
        f'<line x1="{margin_left}" y1="{margin_top}" x2="{margin_left}" '
        f'y2="{baseline_y:.1f}" stroke="black" stroke-width="1"/>'
    )
    out.append(
        f'<line x1="{margin_left}" y1="{baseline_y:.1f}" x2="{width - margin_right:.0f}" '
        f'y2="{baseline_y:.1f}" stroke="black" stroke-width="1"/>'
    )
    out.append("</svg>")
    return "\n".join(out) + "\n"
