"""Two-band momentum-space models, band gaps, and Chern phase diagrams.

The driven-hexagonal effective model is H(k) = sum_i h_i(k) sigma_i with

    h1 = j1 (1 + cos k.b1 + cos k.b2)
    h2 = j1 (sin k.b1 - sin k.b2)
    h3 = delta + 2 j2 sum_i cos(k.b_i + phi)

and h0 = 0.  The Haldane reference model keeps h1, h2 but carries
h0' = 2 j2 cos(phi) sum_i cos(k.b_i) and h3' = h3 - h0'; the two have
identical h-vectors at phi = +-pi/2.

Chern numbers use the plaquette link-phase (lattice field-strength)
method of Fukui, Hatsugai and Suzuki on the Brillouin-zone torus spanned
by G1, G2: integer-exact on modest grids whenever the gap stays open and
no plaquette phase approaches +-pi.  Orientation convention:
C(phi = pi/2, delta = 0) = +1; flipping the BZ orientation flips all
signs.

One kernel serves `chern_number`, `phase_diagram` and the exact Floquet
Chern number, and it does only elementwise work per cell:

- The lowest-band vector of h.sigma is taken unnormalised, as
  (-conj(f), h3 + E) where h3 >= 0 and (h3 - E, f) elsewhere, with
  f = h1 + i h2 and E = |h|; both are eigenvectors of -E, and the one
  chosen has squared norm 2E(E + |h3|) >= 2E^2.  A plaquette phase is
  the angle of a closed loop of overlaps, in which each vertex vector
  appears once as a bra and once as a ket.  Rescaling a vector by any
  nonzero complex number c (a norm or a gauge change) multiplies the
  loop by |c|^2 > 0, so the phases are those of normalised vectors.
- Two link fields, L1(k) = <v(k)|v(k+e1)> and L2(k) = <v(k)|v(k+e2)>,
  hold every link of the grid once; the loop around the plaquette at k
  is L2(k) L1(k+e2) conj(L2(k+e1)) conj(L1(k)).
- The fields live on a closed grid, (N1+1) x (N2+1) points whose last
  row and column repeat the first, so neighbours are array slices
  rather than rolled copies.
- The k-only fields (h1, h2, h1^2 + h2^2, f and the NNN sums) and the
  work arrays are built once per diagram (`_BandKernel`); a cell adds
  its h3 and writes the rest in place.  Each cell's gap and integer are
  those `band_scan` and `chern_number` give for its model, bit for bit,
  because the operations and their order are the same.

One rule (`_chern_integer`) turns plaquette phases into an integer or
refuses: gap below the closure threshold, a phase beyond
PLAQUETTE_PHASE_LIMIT, or a phase sum more than 1e-6 from an integer.

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


def model_from_rates(rates, delta_bare: float,
                     geom: LatticeGeometry | None = None) -> BlochModel:
    """Driven-hexagonal BlochModel from EffectiveRates, with
    delta_eff = delta_bare + delta_shift."""
    if not rates.isotropic_nn or not rates.isotropic_nnn:
        raise ValueError("effective rates are not isotropic; no two-band model applies")
    return BlochModel(kind="driven_hexagonal", delta=delta_bare + rates.delta_shift,
                      j1=rates.j1, j2=rates.j2, phi=rates.phi if rates.phi_defined else 0.0,
                      geom=geom or default_geometry())


def _kb_grid(N1: int, N2: int, closed: bool = False):
    """Torus coordinates kb_i = k.b_i of the grid k = (m/N1) G1 + (n/N2) G2.

    closed=True appends the first row and column after the last, so that
    grid neighbours across the seam are plain array slices."""
    m = np.arange(N1 + closed) % N1
    n = np.arange(N2 + closed) % N2
    return np.meshgrid(2 * np.pi * m / N1, 2 * np.pi * n / N2, indexing="ij")


def _k_fields(j1, kb1, kb2):
    """The delta- and phi-independent parts of the h-vector: h1, h2 and the
    NNN sums sc = sum_i cos k.b_i, ss = sum_i sin k.b_i."""
    kb3 = -kb1 - kb2
    h1 = j1 * (1 + np.cos(kb1) + np.cos(kb2))
    h2 = j1 * (np.sin(kb1) - np.sin(kb2))
    sc = np.cos(kb1) + np.cos(kb2) + np.cos(kb3)
    ss = np.sin(kb1) + np.sin(kb2) + np.sin(kb3)
    return h1, h2, sc, ss


def _nnn_fields(j2, phi, sc, ss):
    """The delta-independent parts of h3 and h0': the NNN term
    2 j2 sum_i cos(k.b_i + phi) and the Haldane h0' = 2 j2 cos(phi) sc."""
    return 2 * j2 * (np.cos(phi) * sc - np.sin(phi) * ss), 2 * j2 * np.cos(phi) * sc


def _h_from_kb(kind, delta, j1, j2, phi, kb1, kb2):
    """h-vector from the torus coordinates kb_i = k.b_i."""
    h1, h2, sc, ss = _k_fields(j1, kb1, kb2)
    nnn, h0p = _nnn_fields(j2, phi, sc, ss)
    h3 = delta + nnn
    if kind == "driven_hexagonal":
        h0 = np.zeros_like(h3)
    else:
        h0 = h0p
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


def _gap_on_kb(model, kb1, kb2):
    _, h1, h2, h3 = _h_from_kb(model.kind, model.delta, model.j1, model.j2,
                               model.phi, kb1, kb2)
    return 2 * np.sqrt(h1 ** 2 + h2 ** 2 + h3 ** 2)


def band_scan(model: BlochModel, N1: int, N2: int) -> BandScan:
    """Energies over the BZ torus grid; also locates the coarse gap minimum."""
    if N1 < 3 or N2 < 3:
        raise ValueError("grid must be at least 3 x 3")
    kb1, kb2 = _kb_grid(N1, N2)
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


class _Plaquettes:
    """Plaquette phases on a closed grid of shape (N1+1, N2+1), whose last
    row and column repeat the first, with the work arrays of the link
    fields allocated once and reused by every call: fresh temporaries of
    a 96^2 grid went back to the operating system after each cell and
    cost about 250 page faults per cell to map again."""

    def __init__(self, shape):
        n1, n2 = shape[0] - 1, shape[1] - 1
        self.uc, self.wc = (np.empty(shape, dtype=complex) for _ in range(2))
        self.L1, self.t1 = (np.empty((n1, n2 + 1), dtype=complex) for _ in range(2))
        self.L2, self.t2 = (np.empty((n1 + 1, n2), dtype=complex) for _ in range(2))
        self.a, self.b = (np.empty((n1, n2), dtype=complex) for _ in range(2))

    def __call__(self, u, w):
        """Field-strength phases, shape (N1, N2), of the vectors with
        components u, w; oriented so that C(phi = pi/2, delta = 0) = +1 for
        the driven model."""
        uc = np.conjugate(u, out=self.uc)
        wc = np.conjugate(w, out=self.wc)
        L1 = np.multiply(uc[:-1], u[1:], out=self.L1)            # <v(k)|v(k+e1)>
        L1 += np.multiply(wc[:-1], w[1:], out=self.t1)
        L2 = np.multiply(uc[:, :-1], u[:, 1:], out=self.L2)      # <v(k)|v(k+e2)>
        L2 += np.multiply(wc[:, :-1], w[:, 1:], out=self.t2)
        # L2(k) conj(L1(k)) . L1(k+e2) conj(L2(k+e1))
        a = np.multiply(L2[:-1], np.conjugate(L1[:, :-1], out=self.a), out=self.a)
        b = np.multiply(L1[:, 1:], np.conjugate(L2[1:], out=self.b), out=self.b)
        np.multiply(a, b, out=a)
        return np.arctan2(a.imag, a.real)                        # np.angle(a)


class _BandKernel:
    """The lowest-band plaquette kernel on one closed grid, given h1, h2
    there.  The k-only fields and every work array of grid size are built
    once, so a cell of a diagram allocates only its h3 and its phases."""

    def __init__(self, h1, h2):
        shape = h1.shape
        self.f = h1 + 1j * h2
        self.minus_fc = -np.conj(self.f)
        self.hh = h1 ** 2 + h2 ** 2
        self.E2, self.E, self.t = (np.empty(shape) for _ in range(3))
        self.up = np.empty(shape, dtype=bool)
        self.u, self.w = (np.empty(shape, dtype=complex) for _ in range(2))
        self.plaquettes = _Plaquettes(shape)

    def gap(self, h3) -> float:
        """2 min |h| over the grid, computed as `band_scan` does; keeps
        |h|^2 for `vectors`."""
        E2 = np.add(self.hh, np.multiply(h3, h3, out=self.E2), out=self.E2)
        return 2 * np.sqrt(E2.min())

    def vectors(self, h3):
        """Unnormalised lowest-band vector (u, w) at the h3 last passed to
        `gap`: (-conj(f), h3 + E) where h3 >= 0, else (h3 - E, f).  Each
        branch is the better-conditioned form at its point (squared norm
        2E(E + |h3|)); the two differ by a nonzero factor, which no
        plaquette phase sees."""
        E = np.sqrt(self.E2, out=self.E)
        up = np.greater_equal(h3, 0, out=self.up)
        u = np.subtract(h3, E, out=self.u)
        np.copyto(u, self.minus_fc, where=up)
        w = self.w
        w[...] = self.f
        np.copyto(w, np.add(h3, E, out=self.t), where=up)
        return u, w

    def phases(self, h3):
        """Plaquette phases of the lowest band at the h3 last passed to `gap`."""
        return self.plaquettes(*self.vectors(h3))


def _lowest_band_vectors(h1, h2, h3):
    """Lowest-band eigenvectors of h.sigma on an (N1, N2) grid, shape
    (N1, N2, 2), unnormalised (see `_BandKernel.vectors`)."""
    kernel = _BandKernel(h1, h2)
    kernel.gap(h3)
    return np.stack(kernel.vectors(h3), axis=-1)


def _plaquette_phases(v):
    """Field-strength phases of the closed plaquette loops of a periodic
    eigenvector grid v[(i, j), component]."""
    closed = np.pad(v, ((0, 1), (0, 1), (0, 0)), mode="wrap")
    return _Plaquettes(closed.shape[:2])(closed[..., 0], closed[..., 1])


def _chern_integer(gap, threshold, phases, what="gap") -> int:
    """The one rule from plaquette phases to a Chern integer.

    Raises ChernIndeterminateError when `gap` is below `threshold`, a
    phase lies beyond PLAQUETTE_PHASE_LIMIT, or the phase sum is more than
    1e-6 from an integer.  `phases()` is called only when the gap is open.
    """
    if gap < threshold:
        raise ChernIndeterminateError(
            f"{what} {gap:.3e} below closure threshold {threshold:.3e}")
    F = phases()
    peak = np.abs(F).max()
    if peak > PLAQUETTE_PHASE_LIMIT:
        raise ChernIndeterminateError(f"plaquette phase {peak:.3f} rad too close to +-pi")
    c = F.sum() / (2 * np.pi)
    ci = round(c)
    if abs(c - ci) > 1e-6:
        raise ChernIndeterminateError(f"phase sum {c!r} is not integral")
    return int(ci)


def _check_grid(N1: int, N2: int):
    """Plaquette Chern numbers need at least a 12 x 12 torus grid."""
    if N1 < 12 or N2 < 12:
        raise ValueError(f"Chern grids need N1, N2 >= 12, got {N1} x {N2}")


def chern_number(model: BlochModel, N1: int = 48, N2: int = 48) -> int:
    """Plaquette Chern number of the lowest band on an N1 x N2 torus grid.

    Raises ChernIndeterminateError when the grid gap falls below
    CLOSURE_THRESHOLD * j1, a plaquette phase comes within ~0.34 rad of
    +-pi, or the phase sum fails to round to an integer.
    """
    _check_grid(N1, N2)
    kb1, kb2 = _kb_grid(N1, N2, closed=True)
    _, h1, h2, h3 = _h_from_kb(model.kind, model.delta, model.j1, model.j2,
                               model.phi, kb1, kb2)
    kernel = _BandKernel(h1, h2)
    return _chern_integer(kernel.gap(h3), CLOSURE_THRESHOLD * model.j1,
                          lambda: kernel.phases(h3))


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
                  kinds=KINDS, j1: float = 1.0, j2: float = 0.25) -> dict:
    """Chern diagrams over (phi, delta_eff/j2) for the requested model kinds.

    The Chern number depends only on phi and delta_eff/j2, so j1 and j2
    merely set the energy scale of the reported min_gap.  Returns a dict
    kind -> ChernDiagram.
    """
    _check_grid(N1, N2)
    phi_values = default_phi_grid() if phi_values is None else np.asarray(phi_values, dtype=float)
    ratio_values = default_ratio_grid() if ratio_values is None else np.asarray(ratio_values, dtype=float)
    h1, h2, sc, ss = _k_fields(j1, *_kb_grid(N1, N2, closed=True))
    kernel = _BandKernel(h1, h2)
    thr = CLOSURE_THRESHOLD * j1
    out = {}
    for kind in kinds:
        if kind not in KINDS:
            raise ValueError(f"unknown model kind {kind!r}")
        shape = (len(phi_values), len(ratio_values))
        chern = np.zeros(shape, dtype=int)
        gaps = np.zeros(shape)
        indet = np.zeros(shape, dtype=bool)
        for i, phi in enumerate(phi_values):
            # the h3 of `_h_from_kb` with delta = ratio * j2, term by term
            nnn, h0p = _nnn_fields(j2, phi, sc, ss)
            for j, ratio in enumerate(ratio_values):
                h3 = ratio * j2 + nnn
                if kind == "haldane_reference":
                    h3 = h3 - h0p
                gap = kernel.gap(h3)
                gaps[i, j] = gap / j1
                try:
                    chern[i, j] = _chern_integer(gap, thr, lambda: kernel.phases(h3))
                except ChernIndeterminateError:
                    indet[i, j] = True
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
