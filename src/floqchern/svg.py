"""Dependency-free SVG emitters for the diagram and phase-map figures.

Static rect heatmaps plus contour line segments; no interactive plotting
stack is warranted for flat-file figure reproduction.
"""

from __future__ import annotations

import colorsys

import numpy as np

#: Chern colors: orange C = -1, white C = 0, blue C = +1, gray indeterminate
CHERN_COLORS = {-1: "#e8923c", 0: "#ffffff", 1: "#4a7ab8"}
INDET_COLOR = "#9e9e9e"


def marching_squares(xs, ys, field, level):
    """Contour segments of field(x, y) = level on a rectilinear grid.

    field[i, j] corresponds to (xs[i], ys[j]).  Returns a list of
    ((x0, y0), (x1, y1)) segments from linear edge interpolation.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    f = np.asarray(field, dtype=float) - level
    segs = []

    def interp(pa, pb, fa, fb):
        t = fa / (fa - fb)
        return (pa[0] + t * (pb[0] - pa[0]), pa[1] + t * (pb[1] - pa[1]))

    for i in range(len(xs) - 1):
        for j in range(len(ys) - 1):
            corners = [(xs[i], ys[j]), (xs[i + 1], ys[j]),
                       (xs[i + 1], ys[j + 1]), (xs[i], ys[j + 1])]
            vals = [f[i, j], f[i + 1, j], f[i + 1, j + 1], f[i, j + 1]]
            if any(not np.isfinite(v) for v in vals):
                continue
            pts = []
            for e in range(4):
                fa, fb = vals[e], vals[(e + 1) % 4]
                if (fa > 0) != (fb > 0):
                    pts.append(interp(corners[e], corners[(e + 1) % 4], fa, fb))
            if len(pts) == 2:
                segs.append((pts[0], pts[1]))
            elif len(pts) == 4:
                segs.append((pts[0], pts[1]))
                segs.append((pts[2], pts[3]))
    return segs


def _phase_color(phi):
    """Cyclic hue for a phase in (-pi, pi]."""
    h = (phi + np.pi) / (2 * np.pi)
    r, g, b = colorsys.hsv_to_rgb(h % 1.0, 0.85, 0.95)
    return f"#{int(255*r):02x}{int(255*g):02x}{int(255*b):02x}"


#: canvas margin around the plot area, in px
MARGIN = 55


class _Canvas:
    def __init__(self, width, height, xlim, ylim):
        self.w, self.h, self.m = width, height, MARGIN
        self.xlim, self.ylim = xlim, ylim
        W, H = width + 2 * MARGIN, height + 2 * MARGIN
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" '
            f'height="{H}" viewBox="0 0 {W} {H}">',
            f'<rect x="0" y="0" width="{W}" height="{H}" fill="white"/>',
        ]

    def x(self, v):
        x0, x1 = self.xlim
        return self.m + (v - x0) / (x1 - x0) * self.w

    def y(self, v):
        y0, y1 = self.ylim
        return self.m + self.h - (v - y0) / (y1 - y0) * self.h

    def rect(self, x, y, dx, dy, color):
        self.parts.append(
            f'<rect x="{self.x(x):.2f}" y="{self.y(y + dy):.2f}" '
            f'width="{abs(self.x(x + dx) - self.x(x)):.2f}" '
            f'height="{abs(self.y(y) - self.y(y + dy)):.2f}" fill="{color}"/>')

    def segment(self, p0, p1, dash=None):
        """A white contour line segment, dashed when `dash` is given."""
        d = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<line x1="{self.x(p0[0]):.2f}" y1="{self.y(p0[1]):.2f}" '
            f'x2="{self.x(p1[0]):.2f}" y2="{self.y(p1[1]):.2f}" '
            f'stroke="white" stroke-width="1.6"{d}/>')

    def labels(self, xlabel, ylabel, title):
        cx = self.m + self.w / 2
        self.parts.append(
            f'<text x="{cx}" y="{self.m + self.h + 38}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15">{xlabel}</text>')
        cy = self.m + self.h / 2
        self.parts.append(
            f'<text x="16" y="{cy}" text-anchor="middle" font-family="sans-serif" '
            f'font-size="15" transform="rotate(-90 16 {cy})">{ylabel}</text>')
        self.parts.append(
            f'<text x="{cx}" y="{self.m - 14}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15">{title}</text>')
        x0, x1 = self.xlim
        y0, y1 = self.ylim
        for v, anchor in ((x0, "start"), (x1, "end")):
            self.parts.append(
                f'<text x="{self.x(v):.1f}" y="{self.m + self.h + 18}" text-anchor="{anchor}" '
                f'font-family="sans-serif" font-size="12">{v:.3g}</text>')
        for v in (y0, y1):
            self.parts.append(
                f'<text x="{self.m - 6}" y="{self.y(v):.1f}" text-anchor="end" '
                f'font-family="sans-serif" font-size="12">{v:.3g}</text>')

    def render(self):
        return "\n".join(self.parts + ["</svg>"])


def chern_diagram_svg(diagram) -> str:
    """Three-color heatmap of a ChernDiagram."""
    phis = diagram.phi_values
    ratios = diagram.ratio_values
    dphi = phis[1] - phis[0] if len(phis) > 1 else 0.1
    dr = ratios[1] - ratios[0] if len(ratios) > 1 else 0.1
    cv = _Canvas(580, 480, (phis[0] - dphi / 2, phis[-1] + dphi / 2),
                 (ratios[0] - dr / 2, ratios[-1] + dr / 2))
    for i, p in enumerate(phis):
        for j, r in enumerate(ratios):
            if diagram.indeterminate[i, j]:
                color = INDET_COLOR
            else:
                color = CHERN_COLORS[int(diagram.chern[i, j])]
            cv.rect(p - dphi / 2, r - dr / 2, dphi, dr, color)
    cv.labels("phi", "delta_eff / j2", diagram.kind)
    return cv.render()


def phase_map_svg(pm) -> str:
    """Cyclic-hue heatmap of the achieved phase with j1/j0 contour overlays
    (solid at 0.25, dashed at 0.5)."""
    A1, A2 = pm.A1, pm.A2
    d1 = A1[1] - A1[0] if len(A1) > 1 else 0.1
    d2 = A2[1] - A2[0] if len(A2) > 1 else 0.1
    cv = _Canvas(560, 560, (A1[0] - d1 / 2, A1[-1] + d1 / 2),
                 (A2[0] - d2 / 2, A2[-1] + d2 / 2))
    for i, a1 in enumerate(A1):
        for j, a2 in enumerate(A2):
            phi = pm.phi[i, j]
            color = "#d0d0d0" if np.isnan(phi) else _phase_color(phi)
            cv.rect(a1 - d1 / 2, a2 - d2 / 2, d1, d2, color)
    for lvl, dash in ((0.25, None), (0.5, "6,4")):
        for p0, p1 in marching_squares(A1, A2, pm.j1_over_j0, lvl):
            cv.segment(p0, p1, dash=dash)
    cv.labels("A1 / omega", "A2 / omega", f"phase map, delta2 = {pm.delta2:.4g}")
    return cv.render()
