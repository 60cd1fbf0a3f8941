"""Exact time-ordered Floquet propagation of the driven Bloch Hamiltonian
and quantitative comparison against the truncated effective model.

The driven 2x2 Bloch Hamiltonian at momentum k is

    H(k, t) = [[delta, conj(G)], [G, -delta]],
    G(k, t) = g_3(t) + g_2(t) e^{+i k.b1} + g_1(t) e^{-i k.b2},

with g_k(t) the Peierls-modulated NN rates.  The momentum pairing and
Fourier sign are fixed by requiring the undriven limit to reproduce the
effective model's NN h-vector exactly (h1 + i h2 in the lower-left
entry); the same convention then makes the first-order NNN and on-site
terms land on the bonds used by the effective module.  Both sides take
k.b from `bloch._kb`, the one k.b product, and G from `_bond_sum`.  The
rates g_k(t) = j0 e^{i chi_k(t)} come from `drive._phasor`, the phasor
of the Fourier components, applied to `drive._peierls_phases`, the one
formula for chi_k(t); quasienergies fold by `drive._fold`, the rule of
`wrap_angle`.

One-period propagators are ordered products of midpoint exponentials
(second-order Magnus), evaluated with the closed-form 2x2 matrix
exponential, so each factor is unitary to machine precision.  The bond
rates and step matrices are built one power-of-two block of steps at a
time, so memory grows with neither the step count nor the harmonic
count times it.  `period_propagator` is the one entry point, for a
single k or a k-array, and runs the optional Richardson step-doubling
check.  `compare_effective` and `omega_ladder` take the size N of an
N x N torus grid (`torus_grid`), as `validate --kgrid` does.  Each Floquet
spectrum is diagonalized in one place: quasienergies are folded to
(-omega/2, omega/2] and sorted per k-point.  Branch pairing against the
effective spectrum goes by eigenvector overlap (in the same sublattice
gauge), since folding can invert energy order.

The omega ladder's first rung (factor 1) is the base comparison, so
`validate --ladder` propagates each omega once.  The rungs are
independent, so `omega_ladder` runs them on `optimizer.worker_count()`
threads through `optimizer._threaded`; each propagation writes its step
blocks into work arrays of its own, allocated once per call, and every
output is bit for bit that of one thread.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import bloch as _bloch
from .drive import (DriveSpec, LatticeGeometry, _bond_amplitudes, _fold, _peierls_phases,
                    _phasor, fourier_components)
from .effective import derive_rates
from .optimizer import _threaded, worker_count

RICHARDSON_TOL = 1e-8

#: most k-point steps whose step matrices, and harmonic terms whose phases,
#: are held at once (32 steps at the 24^2 grid); it bounds memory, not
#: cache use: at 2^15 the block's work arrays take about 4.3 MiB
STEP_BLOCK_SAMPLES = 1 << 15


class StepCountError(RuntimeError):
    """Propagator step count too small (Richardson doubling check failed)."""


@dataclass(frozen=True)
class PropagatorSettings:
    steps_per_period: int = 4096
    richardson_check: bool = False

    def __post_init__(self):
        s = self.steps_per_period
        if s < 256 or (s & (s - 1)):
            raise ValueError("steps_per_period must be a power of two >= 256")


def _bond_phases(k, geom):
    """(e^{+i k.b1}, e^{-i k.b2}) over the leading shape of k (..., 2)."""
    kb1, kb2 = _bloch._kb(k, geom)
    return np.exp(1j * kb1), np.exp(-1j * kb2)


def _bond_sum(g, ph1, ph2, out=None, work=None):
    """G = g_3 + g_2 e^{+i k.b1} + g_1 e^{-i k.b2} from the bond rates
    g (3, ...) and the `_bond_phases` (ph1, ph2), broadcast together;
    written into `out`, with `work` as scratch, where they are given
    (both complex, of the broadcast shape)."""
    G = np.add(g[2], np.multiply(g[1], ph1, out=out), out=out)
    return np.add(G, np.multiply(g[0], ph2, out=work), out=out)


def bloch_hamiltonian_t(spec: DriveSpec, geom: LatticeGeometry, j0: float,
                        delta: float, k, t) -> np.ndarray:
    """Instantaneous Bloch Hamiltonian H(k, t).

    t broadcasts against the leading shape of k (..., 2): H has the shape
    np.broadcast_shapes(t.shape, k.shape[:-1]) + (2, 2).  A scalar t with
    an (Nk, 2) k-array gives (Nk, 2, 2); one k with times (T,) gives
    (T, 2, 2); (Nk,) times with an (Nk, 2) k-array pair up row by row.
    """
    t = np.asarray(t, dtype=float)
    chi = _peierls_phases(*_bond_amplitudes(spec, geom), spec.omega, t.ravel())
    g = _phasor(chi, j0).reshape((3,) + t.shape)
    G = _bond_sum(g, *_bond_phases(k, geom))
    H = np.empty(G.shape + (2, 2), dtype=complex)
    H[..., 0, 0] = delta
    H[..., 0, 1] = np.conj(G)
    H[..., 1, 0] = G
    H[..., 1, 1] = -delta
    return H


def _propagators(spec, geom, j0, delta, ks, steps):
    """One-period propagators for a batch of momenta; shape (Nk, 2, 2).

    Midpoint-exponential products with the closed-form 2x2 exponential:
    exp(-i(h.sigma)dt) = cos(|h|dt) - i sin(|h|dt)/|h| * h.sigma.
    The bond amplitudes are built once; the bond rates and the step
    matrices are built step-major, (block, Nk), one block of steps at a
    time: at most STEP_BLOCK_SAMPLES k-point steps and harmonic terms, or
    4 steps, so the working set does not grow with the step count.  The
    block is a power of two, which divides the step count (a power of
    two, as PropagatorSettings asks) and gives each step's rates bit for
    bit as one product over the whole period would.  The block's work
    arrays are allocated once per call and written in place; each step
    multiplies U by one broadcast product and one sum, (Nk,)-vector
    operations in the order of the 2x2 product's terms.
    """
    ks = np.atleast_2d(np.asarray(ks, dtype=float))
    nk = len(ks)
    T = spec.period
    dt = T / steps
    ph1, ph2 = _bond_phases(ks, geom)
    ms, Z = _bond_amplitudes(spec, geom)
    fits = max(1, STEP_BLOCK_SAMPLES // max(nk, len(spec.harmonics)))
    block = min(steps, max(4, 1 << (fits.bit_length() - 1)))
    G, w, q = (np.empty((block, nk), dtype=complex) for _ in range(3))
    E, c, s = (np.empty((block, nk)) for _ in range(3))
    pos = np.empty((block, nk), dtype=bool)
    h1, h2 = G.real, G.imag
    # the step matrices m[n, i, j] and U[i, j], entries as (Nk,) vectors,
    # and the terms m[i, l] U[l, j] of one step's product
    m = np.empty((block, 2, 2, nk), dtype=complex)
    u = np.zeros((2, 2, nk), dtype=complex)
    u[0, 0] = u[1, 1] = 1
    terms = np.empty((2, 2, 2, nk), dtype=complex)
    for n0 in range(0, steps, block):
        chi = _peierls_phases(ms, Z, spec.omega, (np.arange(n0, n0 + block) + 0.5) * dt)
        _bond_sum(_phasor(chi, j0)[:, :, None], ph1, ph2, out=G, work=w)
        # E = sqrt(h1 ** 2 + h2 ** 2 + delta ** 2)
        np.add(np.square(h1, out=E), np.square(h2, out=c), out=E)
        np.sqrt(np.add(E, delta ** 2, out=E), out=E)
        # s = sin(E dt) / E where E > 0, else dt; c = cos(E dt)
        np.sin(np.multiply(E, dt, out=c), out=s)
        np.cos(c, out=c)
        np.divide(s, E, out=s, where=np.greater(E, 0, out=pos))
        np.copyto(s, dt, where=np.logical_not(pos, out=pos))
        # m11 = c - 1j * s * delta, m22 = c + 1j * s * delta
        np.multiply(np.multiply(1j, s, out=q), delta, out=q)
        np.subtract(c, q, out=m[:, 0, 0])
        np.add(c, q, out=m[:, 1, 1])
        # m12 = -1j * s * (h1 - 1j * h2), m21 = -1j * s * (h1 + 1j * h2)
        np.multiply(-1j, s, out=q)
        np.multiply(1j, h2, out=w)
        np.multiply(q, np.subtract(h1, w, out=m[:, 0, 1]), out=m[:, 0, 1])
        np.multiply(q, np.add(h1, w, out=m[:, 1, 0]), out=m[:, 1, 0])
        for a in m:
            np.multiply(a[:, :, None], u, out=terms)
            np.add(terms[:, 0], terms[:, 1], out=u)
    return np.ascontiguousarray(u.transpose(2, 0, 1))


def period_propagator(spec: DriveSpec, geom: LatticeGeometry, j0: float,
                      delta: float, k, settings: PropagatorSettings) -> np.ndarray:
    """One-period time-ordered propagator U(T): shape (2, 2) for a momentum
    k of shape (2,), (Nk, 2, 2) for an (Nk, 2) k-array.

    With settings.richardson_check, doubling the step count must move no
    entry of any U by RICHARDSON_TOL or more (StepCountError otherwise).
    A j0 whose square is below the smallest normal float raises ValueError
    before any step: the step energies sqrt(h1^2 + h2^2 + delta^2) would
    lose the rates that the step matrices still carry.
    """
    if not j0 * j0 >= np.finfo(float).tiny:
        raise ValueError(f"j0 = {j0:.6g} is too small: j0^2 underflows below the smallest "
                         f"normal float {np.finfo(float).tiny:.6g}")
    k = np.asarray(k, dtype=float)
    U = _propagators(spec, geom, j0, delta, k, settings.steps_per_period)
    if settings.richardson_check:
        U2 = _propagators(spec, geom, j0, delta, k, 2 * settings.steps_per_period)
        err = np.abs(U - U2).max()
        if not err < RICHARDSON_TOL:
            raise StepCountError(
                f"doubling steps moved propagator entries by {err:.2e} "
                f">= {RICHARDSON_TOL}; increase steps_per_period")
    return U if k.ndim == 2 else U[0]


def fold_quasienergy(eps, omega: float):
    """Fold to (-omega/2, omega/2]."""
    return _fold(eps, omega)


def _floquet_branches(U, spec: DriveSpec):
    """Folded quasienergies of the (Nk, 2, 2) propagators U, sorted per
    row, and the eigenvectors as matching columns."""
    evals, evecs = np.linalg.eig(U)
    eps = fold_quasienergy(-np.angle(evals) / spec.period, spec.omega)
    order = np.argsort(eps, axis=1)
    return (np.take_along_axis(eps, order, axis=1),
            np.take_along_axis(evecs, order[:, None, :], axis=2))


def torus_grid(geom: LatticeGeometry, N1: int, N2: int) -> np.ndarray:
    """Flattened BZ grid k = (m/N1) G1 + (n/N2) G2, shape (N1*N2, 2)."""
    if N1 < 1 or N2 < 1:
        raise ValueError(f"k-grid must be at least 1 x 1, got {N1} x {N2}")
    m, n = np.meshgrid(np.arange(N1), np.arange(N2), indexing="ij")
    return (m.ravel()[:, None] / N1) * geom.G1 + (n.ravel()[:, None] / N2) * geom.G2


@dataclass(frozen=True)
class QuasienergyReport:
    """Exact vs effective quasienergies over a k-grid.

    eps_exact/eps_eff are (Nk, 2), each row sorted ascending in the exact
    folded quasienergy with the effective column aligned branch-by-branch
    via eigenvector overlap.  pairing_flag marks k-points where the two
    overlaps differ by less than 1e-3 (pairing ambiguous).
    """

    ks: np.ndarray
    eps_exact: np.ndarray
    eps_eff: np.ndarray
    deviation: np.ndarray
    pairing_flag: np.ndarray
    max_abs_deviation: float
    mean_abs_deviation: float
    unitarity_defect: float
    omega: float

    def rows(self):
        """(kx, ky, eps_exact lo and hi, eps_eff lo and hi, deviation,
        pairing_flag) per k-point, as Python floats and ints."""
        return zip(*self.ks.T.tolist(), *self.eps_exact.T.tolist(), *self.eps_eff.T.tolist(),
                   self.deviation.tolist(), self.pairing_flag.astype(int).tolist())


def _effective_h(rates, delta_bare, geom, ks):
    """Effective Bloch matrices h.sigma of the driven model at momenta ks."""
    _, h1, h2, h3 = _bloch.h_vector(_bloch.model_from_rates(rates, delta_bare, geom=geom), ks)
    H = np.empty((len(ks), 2, 2), dtype=complex)
    H[:, 0, 0] = h3
    H[:, 0, 1] = h1 - 1j * h2
    H[:, 1, 0] = h1 + 1j * h2
    H[:, 1, 1] = -h3
    return H


def compare_effective(spec: DriveSpec, geom: LatticeGeometry, j0: float,
                      delta: float, kgrid: int, settings: PropagatorSettings) -> QuasienergyReport:
    """Folded exact quasienergies vs the effective spectrum on the
    kgrid x kgrid torus grid (`torus_grid`)."""
    rates = derive_rates(fourier_components(spec, geom, j0))
    ks = torus_grid(geom, kgrid, kgrid)
    # the effective side first: its two-band model refuses an anisotropic
    # drive before anything is propagated
    He = _effective_h(rates, delta, geom, ks)

    U = period_propagator(spec, geom, j0, delta, ks, settings)
    defect = float(np.abs(np.einsum("kij,kil->kjl", U.conj(), U) - np.eye(2)).max())
    eps_x, vx = _floquet_branches(U, spec)

    eps_e, ve = np.linalg.eigh(He)
    eps_e = fold_quasienergy(eps_e, spec.omega)
    # same sublattice gauge as the exact Hamiltonian
    ve = ve.copy()
    ve[:, 1, :] *= np.exp(1j * rates.gauge_phase)

    ov = np.abs(np.einsum("kiv,kiw->kvw", ve.conj(), vx))  # [k, eff, exact]
    keep = ov[:, 0, 0] * ov[:, 1, 1]
    swap = ov[:, 1, 0] * ov[:, 0, 1]
    use_swap = swap > keep
    pairing_flag = np.abs(keep - swap) < 1e-3
    eps_e_paired = np.where(use_swap[:, None], eps_e[:, ::-1], eps_e)

    dev = np.abs(eps_x - eps_e_paired)
    deviation = dev.max(axis=1)
    return QuasienergyReport(
        ks=ks, eps_exact=eps_x, eps_eff=eps_e_paired, deviation=deviation,
        pairing_flag=pairing_flag,
        max_abs_deviation=float(dev.max()), mean_abs_deviation=float(dev.mean()),
        unitarity_defect=defect, omega=spec.omega)


@dataclass(frozen=True)
class LadderResult:
    omegas: np.ndarray
    deviations: np.ndarray
    exponent: float          # slope of log(dev) vs log(omega); -2 expected;
                             # NaN when a deviation is 0
    shrink_factors: np.ndarray  # dev(w) / dev(2w) per doubling; NaN where
                                # dev(2w) is 0
    report: QuasienergyReport   # the first rung's report


def omega_ladder(spec: DriveSpec, geom: LatticeGeometry, j0: float, delta: float,
                 kgrid: int, settings: PropagatorSettings,
                 factors=(1.0, 2.0, 4.0, 8.0)) -> LadderResult:
    """Deviation scaling across an omega ladder at fixed A/omega and fixed j0.

    Amplitudes are stored as multiples of omega, so raising omega with the
    same harmonics realizes exactly the fixed-ratio ladder.  With the
    default first factor 1.0, the first rung is `compare_effective` at the
    base omega, bit for bit.  The rungs are independent propagations and
    run on `worker_count()` threads (`optimizer._threaded`), in order as
    far as errors go: the first rung that raises, in order, raises, and no
    result depends on the thread count.  A deviation of exactly 0 (an
    effective model that is exact on the grid) leaves the exponent and the
    shrink factors that need its logarithm or divide by it undefined: NaN,
    with no warning.  The factors must be at least two, positive, finite
    and strictly increasing, else a ValueError is raised before any rung
    is propagated.
    """
    if len(factors) < 2 or not all(0 < a < b < math.inf for a, b in zip(factors, factors[1:])):
        raise ValueError(f"ladder factors must be at least two, positive, finite and "
                         f"strictly increasing, got {factors}")

    def rung(factor):
        return compare_effective(DriveSpec(family=spec.family, omega=spec.omega * factor,
                                           harmonics=spec.harmonics),
                                 geom, j0, delta, kgrid, settings)
    reports = _threaded([functools.partial(rung, f) for f in factors], worker_count())
    omegas = np.array([rep.omega for rep in reports])
    devs = np.array([rep.max_abs_deviation for rep in reports])
    positive = devs > 0
    slope = float(np.polyfit(np.log(omegas), np.log(devs), 1)[0]) if positive.all() else math.nan
    shrink = np.divide(devs[:-1], devs[1:], out=np.full(len(devs) - 1, math.nan),
                       where=positive[1:])
    return LadderResult(omegas=omegas, deviations=devs, exponent=slope,
                        shrink_factors=shrink, report=reports[0])


def floquet_chern(spec: DriveSpec, geom: LatticeGeometry, j0: float, delta: float,
                  grid: int, settings: PropagatorSettings) -> int:
    """Chern number of the lower Floquet branch of U(T, k) on a torus grid.

    The lower branch is the smaller folded quasienergy; both the direct
    folded gap and the wrap-around gap must stay above
    bloch.CLOSURE_THRESHOLD * j0 at every grid point.
    """
    _bloch._check_grid(grid, grid)
    ks = torus_grid(geom, grid, grid)
    eps, vecs = _floquet_branches(period_propagator(spec, geom, j0, delta, ks, settings), spec)
    direct = eps[:, 1] - eps[:, 0]
    wrap = spec.omega - direct
    low = vecs[:, :, 0].reshape(grid, grid, 2)
    return _bloch._chern_integer(min(direct.min(), wrap.min()), _bloch.CLOSURE_THRESHOLD * j0,
                                 lambda: _bloch._plaquette_phases(low),
                                 what="folded quasienergy gap")
