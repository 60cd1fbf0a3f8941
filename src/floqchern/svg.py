"""Dependency-free SVG emitters for the diagram and phase-map figures.

Static rect heatmaps plus contour line segments; no interactive plotting
stack is warranted for flat-file figure reproduction.
"""

from __future__ import annotations

import itertools

import numpy as np

#: Chern colors: orange C = -1, white C = 0, blue C = +1, gray indeterminate
CHERN_COLORS = {-1: "#e8923c", 0: "#ffffff", 1: "#4a7ab8"}
INDET_COLOR = "#9e9e9e"


def marching_squares(xs, ys, field, level):
    """Contour segments of field(x, y) = level on a rectilinear grid.

    field[i, j] corresponds to (xs[i], ys[j]).  Returns a list of
    ((x0, y0), (x1, y1)) segments from linear edge interpolation, cell by
    cell in (i, j) order.  A cell with a non-finite corner has none.  The
    corners of cell (i, j) run (i, j), (i+1, j), (i+1, j+1), (i, j+1), and
    edge e joins corners e and e + 1 (mod 4); an edge crosses the level
    when (fa > 0) != (fb > 0) at its ends, at t = fa / (fa - fb) of the way
    along it.  A cell crosses on two edges, one segment, or on four, two
    segments pairing its crossings in edge order.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    f = np.asarray(field, dtype=float) - level
    if len(xs) < 2 or len(ys) < 2:
        return []
    # (cell i, cell j, corner) arrays of the corner values and coordinates
    shape = (len(xs) - 1, len(ys) - 1, 4)
    vals = np.stack((f[:-1, :-1], f[1:, :-1], f[1:, 1:], f[:-1, 1:]), axis=-1)
    cx = np.broadcast_to(np.stack((xs[:-1], xs[1:], xs[1:], xs[:-1]), axis=-1)[:, None], shape)
    cy = np.broadcast_to(np.stack((ys[:-1], ys[:-1], ys[1:], ys[1:]), axis=-1)[None], shape)
    nxt = [1, 2, 3, 0]
    cross = (np.isfinite(vals).all(axis=-1, keepdims=True)
             & ((vals > 0) != (vals[..., nxt] > 0)))
    # the crossing edges in (i, j, e) order, every cell's even count in turn
    fa, fb = vals[cross], vals[..., nxt][cross]
    xa, xb = cx[cross], cx[..., nxt][cross]
    ya, yb = cy[cross], cy[..., nxt][cross]
    t = fa / (fa - fb)
    pts = list(zip((xa + t * (xb - xa)).tolist(), (ya + t * (yb - ya)).tolist()))
    return list(zip(pts[::2], pts[1::2]))


def _phase_colors(phi) -> list:
    """Cyclic hues for phases in (-pi, pi]: colorsys.hsv_to_rgb at
    saturation 0.85 and value 0.95, replicated over an array with the same
    expressions and truncations, as '#rrggbb' strings."""
    s, v = 0.85, 0.95
    h = ((np.asarray(phi, dtype=float) + np.pi) / (2 * np.pi)) % 1.0
    i = (h * 6.0).astype(int)
    f = (h * 6.0) - i
    p = v * (1.0 - s)
    q = v * (1.0 - s * f)
    t = v * (1.0 - s * (1.0 - f))
    # hsv_to_rgb's six sectors as indices into (v, p, q, t)
    sector = np.array([[0, 3, 1], [2, 0, 1], [1, 0, 3], [1, 2, 0], [3, 1, 0], [0, 1, 2]])
    comps = np.stack(np.broadcast_arrays(v, p, q, t))
    rgb = (255 * np.take_along_axis(comps, sector[i % 6].T, axis=0)).astype(int)
    return [f"#{r:02x}{g:02x}{b:02x}" for r, g, b in zip(*rgb.tolist())]


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

    def rects(self, x, y, dx, dy, colors):
        """A heatmap: the dx by dy rect with lower-left corner (x[i], y[j])
        for each i, then each j, filled with colors[i * len(y) + j].  The
        pixel coordinates are those of one rect at a time, computed over
        the arrays and formatted once per row and column."""
        x, y = np.asarray(x), np.asarray(y)
        px, py = self.x(x), self.y(y + dy)
        cols = [f'x="{a:.2f}" ' for a in px.tolist()]
        widths = [f'width="{w:.2f}" ' for w in np.abs(self.x(x + dx) - px).tolist()]
        rows = [f'y="{b:.2f}" ' for b in py.tolist()]
        heights = [f'height="{h:.2f}" ' for h in np.abs(self.y(y) - py).tolist()]
        cells = itertools.product(zip(cols, widths), zip(rows, heights))
        self.parts += [f'<rect {c}{r}{w}{h}fill="{color}"/>'
                       for ((c, w), (r, h)), color in zip(cells, colors)]

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
    colors = [INDET_COLOR if indet else CHERN_COLORS[c] for indet, c in
              zip(diagram.indeterminate.ravel().tolist(),
                  diagram.chern.ravel().tolist())]
    cv.rects(phis - dphi / 2, ratios - dr / 2, dphi, dr, colors)
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
    defined = ~np.isnan(pm.phi.ravel())
    colors = np.full(defined.shape, "#d0d0d0", dtype=object)
    colors[defined] = _phase_colors(pm.phi.ravel()[defined])
    cv.rects(A1 - d1 / 2, A2 - d2 / 2, d1, d2, colors)
    for lvl, dash in ((0.25, None), (0.5, "6,4")):
        for p0, p1 in marching_squares(A1, A2, pm.j1_over_j0, lvl):
            cv.segment(p0, p1, dash=dash)
    cv.labels("A1 / omega", "A2 / omega", f"phase map, delta2 = {pm.delta2:.4g}")
    return cv.render()
