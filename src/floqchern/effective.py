"""Leading-order effective tunneling rates of the shaken lattice.

Time-averaging the modulated NN rates gives g0_k; pairing their Fourier
components through the commutator kernel

    w(a, b) = sum_{n>=1} (1/(n*omega)) * (ga^{-n} gb^{n} - gb^{-n} ga^{n})

gives the induced on-site rate tau0 and the three NNN rates tau_1..tau_3.
For the isotropy-preserving drive families all three NN averages coincide
(common complex value, removable by a sublattice gauge phase) and the
three NNN rates collapse onto a single j2 * exp(i*phi).

`derive_rates` is the one reduction of a spectrum to rates: tau0 and the
three tau are six sums of the one commutator kernel `w_commutator`, each
pairing a bond a_i with a reflected bond -a_j (`negated_bond`):

    tau0 = w(a1, -a1) + w(a2, -a2) + w(a3, -a3)
    tau1 = w(a2, -a3),  tau2 = w(a3, -a1),  tau3 = w(a1, -a2)

and the isotropy residuals are the largest pairwise spread within the
three g0 and within the three tau.

Pure functions over immutable inputs; safe for parallel parameter sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .drive import TunnelingSpectrum

#: below this fraction of j0, |tau| is treated as zero and phi undefined
PHI_UNDEFINED_FLOOR = 1e-14

#: isotropy tolerance on the residuals, relative to j0 (NN) and j0^2/omega (NNN)
ISO_TOL = 1e-8


def w_commutator(ga: np.ndarray, gb: np.ndarray, omega: float, n_max: int) -> complex:
    """Commutator kernel sum_{n=1..n_max} (ga[-n]*gb[n] - gb[-n]*ga[n])/(n*omega).

    Arrays span n in [-n_max, n_max] (center index n_max).  The terms are
    added in order of n, as a loop over n would add them, not by numpy's
    pairwise sum of a 1-D array, which rounds differently: the rates of
    `derive_rates`, and the files written from them, keep the bits of an
    in-order sum.  Antisymmetric under argument swap, exactly: every term
    is an exact IEEE negation of its swapped counterpart, and both are
    summed in the same order.
    """
    ga = np.asarray(ga)
    gb = np.asarray(gb)
    if ga.shape != (2 * n_max + 1,) or gb.shape != (2 * n_max + 1,):
        raise ValueError(
            f"Fourier arrays must span [-n_max, n_max] = {2 * n_max + 1} entries, "
            f"got {ga.shape} and {gb.shape}")
    c = n_max
    # views of the orders -1 .. -n_max and 1 .. n_max
    terms = ((ga[:c][::-1] * gb[c + 1:] - gb[:c][::-1] * ga[c + 1:])
             / (np.arange(1, c + 1) * omega))
    return complex(np.add.accumulate(terms)[-1]) if n_max else 0j


@dataclass(frozen=True)
class EffectiveRates:
    """Derived effective tunneling rates and isotropy diagnostics.

    delta_shift is the on-site renormalization Re(tau0) entering the
    effective sublattice offset as delta_eff = delta + delta_shift (the
    commutator term adds diag(tau0, -tau0) once).  gauge_phase is the
    common NN phase removed by the sublattice gauge transformation; the
    NNN rates are untouched by it.  phi = arg(tau1), wrapped to (-pi, pi],
    undefined (phi_defined False) when j2 < 1e-14 * j0.
    """

    j0: float
    omega: float
    g0: np.ndarray
    tau0: complex
    tau: np.ndarray
    j1: float
    j2: float
    phi: float
    phi_defined: bool
    delta_shift: float
    gauge_phase: float
    residual_nn: float
    residual_nnn: float
    isotropic_nn: bool
    isotropic_nnn: bool

    def to_json_dict(self) -> dict:
        return {
            "g0": [[z.real, z.imag] for z in self.g0],
            "tau": [[z.real, z.imag] for z in self.tau],
            "tau0": [self.tau0.real, self.tau0.imag],
            "j1": self.j1,
            "j2": self.j2,
            "phi": self.phi,
            "phi_defined": self.phi_defined,
            "delta_shift": self.delta_shift,
            "gauge_phase": self.gauge_phase,
            "residuals": {"nn": self.residual_nn, "nnn": self.residual_nnn},
            "isotropic_nn": self.isotropic_nn,
            "isotropic_nnn": self.isotropic_nnn,
        }


def _spread(v):
    """The largest |v_i - v_j| among three complex values v (3,)."""
    d = v - v[[1, 2, 0]]
    return np.hypot(d.real, d.imag).max()


def derive_rates(spectrum: TunnelingSpectrum) -> EffectiveRates:
    """Reduce a tunneling spectrum to effective rates with isotropy checks.

    Isotropy of the NN sector requires the three complex averages g0_k to
    coincide (a single sublattice phase can only remove a phase common to
    all three bonds).  Residuals are max pairwise deviations, compared
    against ISO_TOL relative to j0 (NN) and j0^2/omega (NNN).  A
    non-isotropic drive is diagnosed, not rejected.
    """
    j0, omega, n_max = spectrum.j0, spectrum.omega, spectrum.n_max
    g0 = spectrum.g[:, n_max].copy()

    def w(i, j):
        # w(a_i, -a_j)
        return w_commutator(spectrum.g[i - 1], spectrum.negated_bond(j), omega, n_max)
    tau0 = w(1, 1) + w(2, 2) + w(3, 3)
    tau = np.array([w(2, 3), w(3, 1), w(1, 2)])
    residual_nn, residual_nnn = _spread(g0), _spread(tau)
    mean_g0 = g0.sum() / 3
    j1 = float(np.hypot(mean_g0.real, mean_g0.imag))
    j2 = float(np.hypot(tau[0].real, tau[0].imag))
    phi_defined = j2 > PHI_UNDEFINED_FLOOR * j0
    g0.setflags(write=False)
    tau.setflags(write=False)
    return EffectiveRates(
        j0=j0, omega=omega, g0=g0, tau0=tau0, tau=tau,
        j1=j1, j2=j2, phi=float(np.arctan2(tau[0].imag, tau[0].real)) if phi_defined else 0.0,
        phi_defined=phi_defined, delta_shift=tau0.real,
        gauge_phase=float(np.angle(mean_g0)) if j1 > 0 else 0.0,
        residual_nn=float(residual_nn), residual_nnn=float(residual_nnn),
        isotropic_nn=bool(residual_nn <= ISO_TOL * j0),
        isotropic_nnn=bool(residual_nnn <= ISO_TOL * j0 ** 2 / omega))
