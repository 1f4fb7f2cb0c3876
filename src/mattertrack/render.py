"""Static SVG diagnostics: particle 1-sigma ellipses colored by cluster."""
from __future__ import annotations

import math
import xml.etree.ElementTree as ET

import numpy as np

from .types import ModelState, Observations

# Distinct fill colors per cluster, cycled when K exceeds the palette.
PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)
OUTLIER_COLOR = "#000000"


def _ellipse_params(cov2: np.ndarray) -> tuple[float, float, float]:
    """(semi-axis a, semi-axis b, angle degrees) of the 1-sigma contour."""
    vals, vecs = np.linalg.eigh(cov2)
    vals = np.maximum(vals, 0.0)
    a, b = math.sqrt(vals[1]), math.sqrt(vals[0])
    angle = math.degrees(math.atan2(vecs[1, 1], vecs[0, 1]))
    return a, b, angle


def render_frame_svg(state: ModelState, obs: Observations, path: str,
                     size: int = 640, margin: float = 0.05) -> None:
    """Write one frame as a standalone SVG.

    Points are dots colored by their particle's cluster (outliers black);
    particles are 1-sigma covariance ellipses in their cluster color.  Only
    the first two coordinates are drawn for 3D states.
    """
    # an empty frame is framed by its particles alone
    pos = (obs.positions if len(obs) else state.mu_B)[:, :2]
    lo = pos.min(axis=0)
    hi = pos.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)
    pad = margin * span.max()
    lo = lo - pad
    hi = hi + pad
    scale = size / (hi - lo).max()

    def to_px(p):
        # y grows downward in SVG
        return (float((p[0] - lo[0]) * scale), float((hi[1] - p[1]) * scale))

    width = float((hi[0] - lo[0]) * scale)
    height = float((hi[1] - lo[1]) * scale)
    svg = ET.Element("svg", xmlns="http://www.w3.org/2000/svg",
                     width=f"{width:.1f}", height=f"{height:.1f}",
                     viewBox=f"0 0 {width:.1f} {height:.1f}")
    ET.SubElement(svg, "rect", x="0", y="0", width=f"{width:.1f}",
                  height=f"{height:.1f}", fill="white")

    def color(k: int) -> str:
        return PALETTE[k % len(PALETTE)]

    z = state.z_B
    for n in range(len(obs)):
        px, py = to_px(pos[n])
        if z[n] >= state.L:
            fill = OUTLIER_COLOR
        else:
            fill = color(int(state.z_H[z[n]]))
        ET.SubElement(svg, "circle", cx=f"{px:.2f}", cy=f"{py:.2f}", r="2",
                      fill=fill, opacity="0.55")

    for ell in range(state.L):
        a, b, angle = _ellipse_params(state.Sigma_B[ell][:2, :2])
        cx, cy = to_px(state.mu_B[ell][:2])
        fill = color(int(state.z_H[ell]))
        ET.SubElement(
            svg, "ellipse", cx="0", cy="0",
            rx=f"{a * scale:.2f}", ry=f"{b * scale:.2f}",
            fill=fill, stroke=fill, opacity="0.35",
            transform=f"translate({cx:.2f} {cy:.2f}) rotate({-angle:.2f})",
        )

    ET.ElementTree(svg).write(path, xml_declaration=True, encoding="unicode")
