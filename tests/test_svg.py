"""The array-wise SVG emitters against the per-cell loops they replace.

The reference functions below are the loop forms of `marching_squares`,
the phase colour and the heatmap rects; every figure must come out byte
for byte the same from both.
"""

import colorsys

import numpy as np
import pytest

from floqchern import bloch, svg
from floqchern.cli import parse_range
from floqchern.optimizer import PhaseMap, phase_map


def _ref_marching_squares(xs, ys, field, level):
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


def _ref_phase_color(phi):
    h = (phi + np.pi) / (2 * np.pi)
    r, g, b = colorsys.hsv_to_rgb(h % 1.0, 0.85, 0.95)
    return f"#{int(255*r):02x}{int(255*g):02x}{int(255*b):02x}"


def _ref_rect(cv, x, y, dx, dy, color):
    cv.parts.append(
        f'<rect x="{cv.x(x):.2f}" y="{cv.y(y + dy):.2f}" '
        f'width="{abs(cv.x(x + dx) - cv.x(x)):.2f}" '
        f'height="{abs(cv.y(y) - cv.y(y + dy)):.2f}" fill="{color}"/>')


def _ref_chern_diagram_svg(diagram):
    phis = diagram.phi_values
    ratios = diagram.ratio_values
    dphi = phis[1] - phis[0] if len(phis) > 1 else 0.1
    dr = ratios[1] - ratios[0] if len(ratios) > 1 else 0.1
    cv = svg._Canvas(580, 480, (phis[0] - dphi / 2, phis[-1] + dphi / 2),
                     (ratios[0] - dr / 2, ratios[-1] + dr / 2))
    for i, p in enumerate(phis):
        for j, r in enumerate(ratios):
            if diagram.indeterminate[i, j]:
                color = svg.INDET_COLOR
            else:
                color = svg.CHERN_COLORS[int(diagram.chern[i, j])]
            _ref_rect(cv, p - dphi / 2, r - dr / 2, dphi, dr, color)
    cv.labels("phi", "delta_eff / j2", diagram.kind)
    return cv.render()


def _ref_phase_map_svg(pm):
    A1, A2 = pm.A1, pm.A2
    d1 = A1[1] - A1[0] if len(A1) > 1 else 0.1
    d2 = A2[1] - A2[0] if len(A2) > 1 else 0.1
    cv = svg._Canvas(560, 560, (A1[0] - d1 / 2, A1[-1] + d1 / 2),
                     (A2[0] - d2 / 2, A2[-1] + d2 / 2))
    for i, a1 in enumerate(A1):
        for j, a2 in enumerate(A2):
            phi = pm.phi[i, j]
            color = "#d0d0d0" if np.isnan(phi) else _ref_phase_color(phi)
            _ref_rect(cv, a1 - d1 / 2, a2 - d2 / 2, d1, d2, color)
    for lvl, dash in ((0.25, None), (0.5, "6,4")):
        for p0, p1 in _ref_marching_squares(A1, A2, pm.j1_over_j0, lvl):
            cv.segment(p0, p1, dash=dash)
    cv.labels("A1 / omega", "A2 / omega", f"phase map, delta2 = {pm.delta2:.4g}")
    return cv.render()


def _assert_same_segments(xs, ys, field, level):
    ref = _ref_marching_squares(xs, ys, field, level)
    new = svg.marching_squares(xs, ys, field, level)
    assert len(new) == len(ref)
    # as bytes, so that the sign of a zero counts
    assert (np.array(new, dtype=float).reshape(-1, 4).tobytes()
            == np.array(ref, dtype=float).reshape(-1, 4).tobytes())
    return ref


@pytest.fixture(scope="module")
def benchmark_maps():
    """The benchmark's 71 x 141 maps: plus at delta2 = pi/2, minus at -pi/2."""
    A1, A2 = parse_range("0:3.5:0.05"), parse_range("-3.5:3.5:0.05")
    return [phase_map(A1, A2, np.pi / 2, "plus"), phase_map(A1, A2, -np.pi / 2, "minus")]


def test_benchmark_maps_match_loops(benchmark_maps):
    for pm in benchmark_maps:
        assert np.isnan(pm.phi).any()
        for level in (0.25, 0.5):
            assert _assert_same_segments(pm.A1, pm.A2, pm.j1_over_j0, level)
        assert svg.phase_map_svg(pm) == _ref_phase_map_svg(pm)


def test_contour_edge_cases_match_loop():
    # values on a half-integer lattice around the level: corners exactly at
    # the level, saddle cells with four crossings, and non-finite corners
    rng = np.random.default_rng(11)
    xs = np.cumsum(rng.uniform(0.1, 1.0, 40)) - 3.0
    ys = np.cumsum(rng.uniform(0.1, 1.0, 30)) - 7.0
    level = 0.25
    field = level + 0.5 * rng.integers(-2, 3, (40, 30))
    field[rng.random((40, 30)) < 0.05] = np.nan
    field[3, 4], field[20, 7] = np.inf, -np.inf
    f = field - level
    corners = np.stack((f[:-1, :-1], f[1:, :-1], f[1:, 1:], f[:-1, 1:]), axis=-1)
    signs = corners > 0
    crossings = (signs != np.roll(signs, -1, axis=-1)).sum(axis=-1)
    finite = np.isfinite(corners).all(axis=-1)
    assert (crossings[finite] == 4).any()
    assert (corners[finite] == 0).any()
    assert not finite.all()
    # a corner exactly at the level makes t a signed zero
    _assert_same_segments(xs, ys, field, level)


def test_phase_colors_match_colorsys():
    phis = np.concatenate((np.linspace(-np.pi, np.pi, 20001),
                           np.pi * (np.arange(-6, 7) / 6),
                           np.nextafter(np.pi * (np.arange(-6, 7) / 6), np.inf),
                           np.nextafter(np.pi * (np.arange(-6, 7) / 6), -np.inf)))
    assert svg._phase_colors(phis) == [_ref_phase_color(p) for p in phis]
    assert svg._phase_colors(np.empty(0)) == []


@pytest.mark.parametrize("A1, A2", [("0:0:1", "-1:1:0.25"), ("0:2:0.5", "1:1:1"),
                                    ("1:1:1", "2:2:1")])
def test_single_row_or_column_maps_match_loops(A1, A2):
    # one point along an axis falls back to a spacing of 0.1 and draws no contour
    pm = phase_map(parse_range(A1), parse_range(A2), np.pi / 2)
    assert svg.phase_map_svg(pm) == _ref_phase_map_svg(pm)
    assert svg.marching_squares(pm.A1, pm.A2, pm.j1_over_j0, 0.25) == []


def test_map_with_undefined_phases_matches_loops():
    A1, A2 = np.linspace(-1.0, 2.0, 7), np.linspace(0.5, 3.0, 9)
    rng = np.random.default_rng(5)
    phi = rng.uniform(-np.pi, np.pi, (7, 9))
    phi[rng.random((7, 9)) < 0.3] = np.nan
    phi[0, 0], phi[1, 1] = np.pi, -np.pi
    pm = PhaseMap(A1=A1, A2=A2, delta2=0.3, family="plus", phi=phi,
                  j1_over_j0=rng.uniform(0.0, 1.0, (7, 9)))
    assert svg.phase_map_svg(pm) == _ref_phase_map_svg(pm)


@pytest.mark.parametrize("phi, ratio", [("-3.1416:3.1416:0.065", "-8:8:0.165"),
                                        ("0:0:1", "-1:1:0.5"), ("-1:1:0.5", "2:2:1"),
                                        ("-1:1:0.5", "-1:1:0.5")])
def test_chern_diagram_svg_matches_loops(phi, ratio):
    diagrams = bloch.phase_diagram(parse_range(phi), parse_range(ratio), N1=48, N2=48)
    assert set(diagrams) == set(bloch.KINDS)
    for dg in diagrams.values():
        assert svg.chern_diagram_svg(dg) == _ref_chern_diagram_svg(dg)
    if phi.startswith("-3.1416"):
        # the default grid: all three Chern colours
        assert {int(c) for dg in diagrams.values() for c in np.unique(dg.chern)} == {-1, 0, 1}
    if phi == ratio:
        # the gap closes at phi = 0, delta_eff = 0: an indeterminate cell
        assert diagrams["haldane_reference"].indeterminate.any()
