"""Two-band momentum-space models, band gaps, and Chern phase diagrams.

The driven-hexagonal effective model is H(k) = sum_i h_i(k) sigma_i with

    h1 = j1 (1 + cos k.b1 + cos k.b2)
    h2 = j1 (sin k.b1 - sin k.b2)
    h3 = delta + 2 j2 sum_i cos(k.b_i + phi)

and h0 = 0.  The Haldane reference model keeps h1, h2 but carries
h0' = 2 j2 cos(phi) sum_i cos(k.b_i) and h3' = h3 - h0'; the two have
identical h-vectors at phi = +-pi/2.

Chern numbers use the plaquette link-phase (lattice field-strength)
method on the Brillouin-zone torus spanned by G1, G2: integer-exact on
modest grids whenever the gap stays open and no plaquette phase
approaches +-pi.  Orientation convention: C(phi = pi/2, delta = 0) = +1;
flipping the BZ orientation flips all signs.

Per-cell and per-k computations are independent; the diagram scan is a
deterministic map regardless of scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .drive import LatticeGeometry, default_geometry

KINDS = ("driven_hexagonal", "haldane_reference")

#: gap (in units of j1) below which a Chern number is refused
CLOSURE_THRESHOLD = 1e-6

#: plaquette phases |F| above this (rad) put the field strength too close
#: to the +-pi branch cut to trust the integer
PLAQUETTE_PHASE_LIMIT = 2.8


class ChernIndeterminateError(RuntimeError):
    """Gap closure or plaquette-phase ambiguity on the requested grid."""


@dataclass(frozen=True)
class BlochModel:
    """Two-band model parameters: sublattice offset delta (already
    including any drive-induced shift), NN rate j1 > 0, NNN rate j2 >= 0
    and NNN phase phi."""

    kind: str
    delta: float
    j1: float
    j2: float
    phi: float
    geom: LatticeGeometry

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if not self.j1 > 0:
            raise ValueError("j1 must be positive")
        if self.j2 < 0:
            raise ValueError("j2 must be nonnegative")


def model_from_rates(rates, delta_bare: float, kind: str = "driven_hexagonal",
                     geom: LatticeGeometry | None = None) -> BlochModel:
    """BlochModel from EffectiveRates, with delta_eff = delta_bare + delta_shift."""
    if not rates.isotropic_nn or not rates.isotropic_nnn:
        raise ValueError("effective rates are not isotropic; no two-band model applies")
    return BlochModel(kind=kind, delta=delta_bare + rates.delta_shift,
                      j1=rates.j1, j2=rates.j2, phi=rates.phi if rates.phi_defined else 0.0,
                      geom=geom or default_geometry())


def _h_from_kb(kind, delta, j1, j2, phi, kb1, kb2):
    """h-vector from the torus coordinates kb_i = k.b_i."""
    kb3 = -kb1 - kb2
    h1 = j1 * (1 + np.cos(kb1) + np.cos(kb2))
    h2 = j1 * (np.sin(kb1) - np.sin(kb2))
    sc = np.cos(kb1) + np.cos(kb2) + np.cos(kb3)
    ss = np.sin(kb1) + np.sin(kb2) + np.sin(kb3)
    h3 = delta + 2 * j2 * (np.cos(phi) * sc - np.sin(phi) * ss)
    if kind == "driven_hexagonal":
        h0 = np.zeros_like(h3)
    else:
        h0 = 2 * j2 * np.cos(phi) * sc
        h3 = h3 - h0
    return h0, h1, h2, h3


def h_vector(model: BlochModel, k):
    """(h0, h1, h2, h3) at momentum k (shape (..., 2))."""
    k = np.asarray(k, dtype=float)
    kb1 = k @ model.geom.b1
    kb2 = k @ model.geom.b2
    return _h_from_kb(model.kind, model.delta, model.j1, model.j2, model.phi, kb1, kb2)


def band_energies(model: BlochModel, k):
    """(eps_minus, eps_plus) = h0 -+ |h| at momentum k."""
    h0, h1, h2, h3 = h_vector(model, k)
    E = np.sqrt(h1 ** 2 + h2 ** 2 + h3 ** 2)
    return h0 - E, h0 + E


@dataclass(frozen=True)
class BandScan:
    """Band energies on an N1 x N2 torus grid k = (m/N1) G1 + (n/N2) G2."""

    N1: int
    N2: int
    eps_lo: np.ndarray
    eps_hi: np.ndarray
    min_gap: float
    argmin_kb: tuple

    @property
    def gap(self) -> np.ndarray:
        return self.eps_hi - self.eps_lo


def _gap_on_kb(model, kb1, kb2):
    _, h1, h2, h3 = _h_from_kb(model.kind, model.delta, model.j1, model.j2,
                               model.phi, kb1, kb2)
    return 2 * np.sqrt(h1 ** 2 + h2 ** 2 + h3 ** 2)


def band_scan(model: BlochModel, N1: int, N2: int) -> BandScan:
    """Energies over the BZ torus grid; also locates the coarse gap minimum."""
    if N1 < 3 or N2 < 3:
        raise ValueError("grid must be at least 3 x 3")
    kb1, kb2 = np.meshgrid(2 * np.pi * np.arange(N1) / N1,
                           2 * np.pi * np.arange(N2) / N2, indexing="ij")
    h0, h1, h2, h3 = _h_from_kb(model.kind, model.delta, model.j1, model.j2,
                                model.phi, kb1, kb2)
    E = np.sqrt(h1 ** 2 + h2 ** 2 + h3 ** 2)
    gap = 2 * E
    i, j = np.unravel_index(np.argmin(gap), gap.shape)
    return BandScan(N1=N1, N2=N2, eps_lo=h0 - E, eps_hi=h0 + E,
                    min_gap=float(gap[i, j]),
                    argmin_kb=(float(kb1[i, j]), float(kb2[i, j])))


def min_gap(model: BlochModel, N1: int = 48, N2: int = 48):
    """Minimum band gap over the BZ with local refinement.

    Two refinement levels (factor 8 each) around the coarse argmin.
    Returns (gap, k_location) with k in Cartesian coordinates.
    """
    scan = band_scan(model, N1, N2)
    c1, c2 = scan.argmin_kb
    best = scan.min_gap
    step = 2 * np.pi / min(N1, N2)
    for _ in range(2):
        u = np.linspace(-step, step, 17)
        kb1, kb2 = np.meshgrid(c1 + u, c2 + u, indexing="ij")
        gap = _gap_on_kb(model, kb1, kb2)
        i, j = np.unravel_index(np.argmin(gap), gap.shape)
        if gap[i, j] < best:
            best = float(gap[i, j])
            c1, c2 = float(kb1[i, j]), float(kb2[i, j])
        step /= 8
    k_loc = (c1 / (2 * np.pi)) * model.geom.G1 + (c2 / (2 * np.pi)) * model.geom.G2
    return best, k_loc


def _lowest_band_vectors(h1, h2, h3):
    """Normalized lowest-band eigenvectors of h.sigma, shape (..., 2).

    Two algebraic forms cover the two degenerate corners (h3 -> -+|h| with
    h1 = h2 = 0); pick the better-conditioned one pointwise.
    """
    E = np.sqrt(h1 ** 2 + h2 ** 2 + h3 ** 2)
    va = np.stack([-h1 + 1j * h2, h3 + E], axis=-1)
    vb = np.stack([h3 - E, h1 + 1j * h2], axis=-1)
    na = np.linalg.norm(va, axis=-1, keepdims=True)
    nb = np.linalg.norm(vb, axis=-1, keepdims=True)
    use_a = na >= nb
    v = np.where(use_a, va / np.where(na == 0, 1.0, na), vb / np.where(nb == 0, 1.0, nb))
    return v


def _plaquette_phases(v):
    """Field-strength phases of the closed plaquette loops of a periodic
    eigenvector grid v[(i, j), component], oriented so that
    C(phi = pi/2, delta = 0) = +1 for the driven model."""
    v1 = np.roll(v, -1, axis=0)   # advance along kb1
    v2 = np.roll(v, -1, axis=1)   # advance along kb2
    v12 = np.roll(v1, -1, axis=1)
    link = lambda x, y: np.einsum("ijc,ijc->ij", x.conj(), y)
    prod = link(v, v2) * link(v2, v12) * link(v12, v1) * link(v1, v)
    return np.angle(prod)


def _check_grid(N1: int, N2: int):
    """Plaquette Chern numbers need at least a 12 x 12 torus grid."""
    if N1 < 12 or N2 < 12:
        raise ValueError(f"Chern grids need N1, N2 >= 12, got {N1} x {N2}")


def chern_number(model: BlochModel, N1: int = 48, N2: int = 48,
                 closure_threshold: float | None = None) -> int:
    """Plaquette Chern number of the lowest band on an N1 x N2 torus grid.

    Raises ChernIndeterminateError when the grid gap falls below the
    closure threshold (default 1e-6 * j1), a plaquette phase comes within
    ~0.34 rad of +-pi, or the phase sum fails to round to an integer.
    """
    _check_grid(N1, N2)
    thr = CLOSURE_THRESHOLD * model.j1 if closure_threshold is None else closure_threshold
    kb1, kb2 = np.meshgrid(2 * np.pi * np.arange(N1) / N1,
                           2 * np.pi * np.arange(N2) / N2, indexing="ij")
    _, h1, h2, h3 = _h_from_kb(model.kind, model.delta, model.j1, model.j2,
                               model.phi, kb1, kb2)
    gap = 2 * np.sqrt(h1 ** 2 + h2 ** 2 + h3 ** 2)
    if gap.min() < thr:
        raise ChernIndeterminateError(
            f"gap {gap.min():.3e} below closure threshold {thr:.3e}")
    F = _plaquette_phases(_lowest_band_vectors(h1, h2, h3))
    if np.abs(F).max() > PLAQUETTE_PHASE_LIMIT:
        raise ChernIndeterminateError(
            f"plaquette phase {np.abs(F).max():.3f} rad too close to +-pi")
    c = F.sum() / (2 * np.pi)
    ci = round(c)
    if abs(c - ci) > 1e-6:
        raise ChernIndeterminateError(f"phase sum {c!r} is not integral")
    return int(ci)


@dataclass(frozen=True)
class ChernDiagram:
    """Per-cell Chern numbers over a (phi, delta_eff/j2) parameter grid.

    chern[i, j] is the lowest-band integer at phi_values[i],
    ratio_values[j]; cells flagged in `indeterminate` sit on (or
    numerically too close to) a gap closure and carry chern = 0 as a
    placeholder.  min_gap is the coarse BZ-grid gap in units of j1.
    """

    kind: str
    phi_values: np.ndarray
    ratio_values: np.ndarray
    chern: np.ndarray
    min_gap: np.ndarray
    indeterminate: np.ndarray
    N1: int
    N2: int

    def rows(self):
        """(phi, ratio, chern, min_gap, indeterminate) per cell, row-major in phi."""
        for i, p in enumerate(self.phi_values):
            for j, r in enumerate(self.ratio_values):
                yield (float(p), float(r), int(self.chern[i, j]),
                       float(self.min_gap[i, j]), int(self.indeterminate[i, j]))


def default_phi_grid(n: int = 97) -> np.ndarray:
    """n evenly spaced phases over [-pi, pi] (endpoints identical mod 2*pi);
    for the default n the grid lands exactly on +-pi/2."""
    return np.linspace(-np.pi, np.pi, n)


def default_ratio_grid(n: int = 97, lim: float = 8.0) -> np.ndarray:
    return np.linspace(-lim, lim, n)


def phase_diagram(phi_values=None, ratio_values=None, N1: int = 48, N2: int = 48,
                  kinds=KINDS, j1: float = 1.0, j2: float = 0.25,
                  geom: LatticeGeometry | None = None) -> dict:
    """Chern diagrams over (phi, delta_eff/j2) for the requested model kinds.

    The Chern number depends only on phi and delta_eff/j2, so j1 and j2
    merely set the energy scale of the reported min_gap.  Returns a dict
    kind -> ChernDiagram.
    """
    _check_grid(N1, N2)
    phi_values = default_phi_grid() if phi_values is None else np.asarray(phi_values, dtype=float)
    ratio_values = default_ratio_grid() if ratio_values is None else np.asarray(ratio_values, dtype=float)
    kb1, kb2 = np.meshgrid(2 * np.pi * np.arange(N1) / N1,
                           2 * np.pi * np.arange(N2) / N2, indexing="ij")
    kb3 = -kb1 - kb2
    h1 = j1 * (1 + np.cos(kb1) + np.cos(kb2))
    h2 = j1 * (np.sin(kb1) - np.sin(kb2))
    sc = np.cos(kb1) + np.cos(kb2) + np.cos(kb3)
    ss = np.sin(kb1) + np.sin(kb2) + np.sin(kb3)
    out = {}
    for kind in kinds:
        if kind not in KINDS:
            raise ValueError(f"unknown model kind {kind!r}")
        shape = (len(phi_values), len(ratio_values))
        chern = np.zeros(shape, dtype=int)
        gaps = np.zeros(shape)
        indet = np.zeros(shape, dtype=bool)
        for i, phi in enumerate(phi_values):
            nnn = 2 * j2 * (np.cos(phi) * sc - np.sin(phi) * ss)
            h0p = 2 * j2 * np.cos(phi) * sc
            for j, ratio in enumerate(ratio_values):
                h3 = ratio * j2 + nnn
                if kind == "haldane_reference":
                    h3 = h3 - h0p
                E2 = h1 ** 2 + h2 ** 2 + h3 ** 2
                gap = 2 * np.sqrt(E2.min())
                gaps[i, j] = gap / j1
                if gap < CLOSURE_THRESHOLD * j1:
                    indet[i, j] = True
                    continue
                F = _plaquette_phases(_lowest_band_vectors(h1, h2, h3))
                if np.abs(F).max() > PLAQUETTE_PHASE_LIMIT:
                    indet[i, j] = True
                    continue
                c = F.sum() / (2 * np.pi)
                ci = round(c)
                if abs(c - ci) > 1e-6:
                    indet[i, j] = True
                    continue
                chern[i, j] = int(ci)
        out[kind] = ChernDiagram(kind=kind, phi_values=phi_values.copy(),
                                 ratio_values=ratio_values.copy(), chern=chern,
                                 min_gap=gaps, indeterminate=indet, N1=N1, N2=N2)
    return out


def driven_boundary_ratios(phi: float) -> tuple:
    """Gap-closure curves of the driven model at the two Dirac points:
    delta_eff/j2 = -6 cos(phi +- 2pi/3)."""
    return (-6 * np.cos(phi + 2 * np.pi / 3), -6 * np.cos(phi - 2 * np.pi / 3))


def haldane_boundary_ratios(phi: float) -> tuple:
    """Gap-closure curves of the Haldane reference: delta/j2 = +-3*sqrt(3)*sin(phi)."""
    b = 3 * np.sqrt(3.0) * np.sin(phi)
    return (b, -b)
