"""Static SVG figures for d=2 instances, separators, and solutions."""
from __future__ import annotations

from typing import Optional

from .geometry import AxisBox, Ball, BoxRegion, bounding_region
from .instances import Instance
from .separator import SeparatorResult
from .solver import Solution

_COLORS = {
    "plain": "#607d8b",
    "inside": "#2e7d32",
    "outside": "#90a4ae",
    "boundary": "#c62828",
    "witness": "#ef6c00",
}

CANVAS = 800.0


def render_svg(inst: Instance, overlay=None, path: Optional[str] = None) -> str:
    """Render an instance with an optional separator/solution overlay.

    Returns the SVG text; writes it to `path` when given.  d=2 only.
    """
    if inst.dim != 2:
        raise ValueError("SVG rendering supports d=2 only")

    if inst.n:
        frame = bounding_region(list(inst.objects))
    else:
        frame = BoxRegion((0.0, 0.0), (1.0, 1.0))
    if isinstance(overlay, SeparatorResult):
        lo = tuple(min(a, b) for a, b in zip(frame.low, overlay.box.low))
        hi = tuple(max(a, b) for a, b in zip(frame.high, overlay.box.high))
        frame = BoxRegion(lo, hi)

    span = max(frame.longest_side, 1e-9)
    pad = 0.03 * span
    scale = CANVAS / (span + 2 * pad)

    def sx(x: float) -> float:
        return (x - frame.low[0] + pad) * scale

    def sy(y: float) -> float:
        # SVG y grows downward.
        return CANVAS - (y - frame.low[1] + pad) * scale

    roles = {}
    witness_ids = set()
    if isinstance(overlay, SeparatorResult):
        for i in overlay.inside_ids:
            roles[i] = "inside"
        for i in overlay.outside_ids:
            roles[i] = "outside"
        for i in overlay.boundary_ids:
            roles[i] = "boundary"
    elif isinstance(overlay, Solution) and overlay.problem == "pack":
        witness_ids = set(overlay.witness)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{CANVAS:.0f}" '
        f'height="{CANVAS:.0f}" viewBox="0 0 {CANVAS:.0f} {CANVAS:.0f}">',
        f'<rect class="frame" x="0" y="0" width="{CANVAS:.0f}" '
        f'height="{CANVAS:.0f}" fill="white" stroke="black"/>',
    ]
    for i, o in enumerate(inst.objects):
        role = roles.get(i, "plain")
        color = _COLORS[role]
        fill = _COLORS["witness"] if i in witness_ids else "none"
        if isinstance(o, Ball):
            parts.append(
                f'<circle class="obj {role}" cx="{sx(o.center[0]):.2f}" '
                f'cy="{sy(o.center[1]):.2f}" r="{o.radius * scale:.2f}" '
                f'fill="{fill}" stroke="{color}"/>'
            )
        else:
            w = (o.high[0] - o.low[0]) * scale
            h = (o.high[1] - o.low[1]) * scale
            parts.append(
                f'<rect class="obj {role}" x="{sx(o.low[0]):.2f}" '
                f'y="{sy(o.high[1]):.2f}" width="{w:.2f}" height="{h:.2f}" '
                f'fill="{fill}" stroke="{color}"/>'
            )
    if isinstance(overlay, SeparatorResult):
        b = overlay.box
        parts.append(
            f'<rect class="separator" x="{sx(b.low[0]):.2f}" '
            f'y="{sy(b.high[1]):.2f}" width="{(b.high[0] - b.low[0]) * scale:.2f}" '
            f'height="{(b.high[1] - b.low[1]) * scale:.2f}" '
            f'fill="none" stroke="#1565c0" stroke-width="2"/>'
        )
    if isinstance(overlay, Solution) and overlay.problem == "pierce":
        for p in overlay.witness:
            parts.append(
                f'<circle class="pierce" cx="{sx(p[0]):.2f}" cy="{sy(p[1]):.2f}" '
                f'r="3" fill="#1565c0"/>'
            )
    parts.append("</svg>")
    text = "\n".join(parts) + "\n"
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text
