import numpy as np
import pytest
from scipy.special import jv

from floqchern import (
    build_custom_drive,
    build_family_drive,
    default_geometry,
    derive_rates,
    fourier_components,
    w_commutator,
)

GEOM = default_geometry()


def rates_for(family, omega, amps, deltas, j0=1.0, n_max=None):
    spec = build_family_drive(family, omega, amps, deltas)
    return derive_rates(fourier_components(spec, GEOM, j0, n_max=n_max))


# ---------------------------------------------------------------------------
# commutator kernel

def test_w_self_is_zero():
    rng = np.random.default_rng(0)
    x = rng.normal(size=9) + 1j * rng.normal(size=9)
    assert w_commutator(x, x, 1.0, 4) == 0


def test_w_antisymmetry_bitwise():
    rng = np.random.default_rng(1)
    for _ in range(10):
        a = rng.normal(size=11) + 1j * rng.normal(size=11)
        b = rng.normal(size=11) + 1j * rng.normal(size=11)
        assert w_commutator(a, b, 1.3, 5) == -w_commutator(b, a, 1.3, 5)


def test_w_undriven_spectrum():
    a = np.zeros(7, dtype=complex)
    a[3] = 1.0  # only n = 0
    assert w_commutator(a, a.copy(), 1.0, 3) == 0


def test_w_mismatched_extents():
    with pytest.raises(ValueError):
        w_commutator(np.zeros(5), np.zeros(7), 1.0, 3)


def test_one_commutator_kernel_pairs_the_bonds():
    # an anisotropic drive (an m = 3 harmonic on unequal axes) keeps the
    # nine bond pairs apart; w_commutator adds its terms in order of n, and
    # derive_rates takes its six sums from it and from negated_bond
    spec = build_custom_drive(1.3, [(1, 1.1, 0.0, 0.7, 0.4), (3, 0.6, -0.9, 0.2, 1.7)])
    sp = fourier_components(spec, GEOM, 0.8)
    c, omega = sp.n_max, sp.omega
    assert c >= 16

    def w(i, j):
        return w_commutator(sp.g[i - 1], sp.negated_bond(j), omega, c)
    # the terms as one array expression (numpy's complex array product may
    # fuse multiply-adds, which scalar products do not), summed by a loop
    n = np.arange(1, c + 1)
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            ga, gb = sp.g[i - 1], sp.negated_bond(j)
            terms = (ga[c - n] * gb[c + n] - gb[c - n] * ga[c + n]) / (n * omega)
            total = terms[0]
            for term in terms[1:]:
                total = total + term
            assert w(i, j) == total
    r = derive_rates(sp)
    assert not r.isotropic_nnn
    tau0 = w(1, 1) + w(2, 2) + w(3, 3)
    assert r.tau0 == tau0 and r.delta_shift == tau0.real
    assert r.tau.tolist() == [w(2, 3), w(3, 1), w(1, 2)]


# ---------------------------------------------------------------------------
# NNN rates

def test_zero_force_rates():
    spec = build_custom_drive(1.0, [])
    sp = fourier_components(spec, GEOM, 1.5, n_max=4)
    r = derive_rates(sp)
    assert r.tau0 == r.tau[0] == r.tau[1] == r.tau[2] == 0
    assert r.j1 == pytest.approx(1.5)
    assert r.j2 == 0
    assert not r.phi_defined


@pytest.mark.parametrize("amp", np.linspace(0.3, 3.8, 5))
def test_monochromatic_rates_purely_imaginary(amp):
    for family in ("plus", "minus"):
        r = rates_for(family, 1.0, [amp], [0.0])
        assert np.abs(r.tau.real).max() < 1e-10


@pytest.mark.parametrize("d2", [0.0, np.pi, -np.pi])
def test_bichromatic_zero_relative_phase_purely_imaginary(d2):
    r = rates_for("plus", 1.0, [1.4, 0.9], [0.0, d2])
    assert np.abs(r.tau.real).max() < 1e-10


def test_family_isotropy_random():
    rng = np.random.default_rng(2)
    for _ in range(10):
        N = int(rng.integers(1, 4))
        deltas = np.concatenate(([0.0], rng.uniform(-np.pi, np.pi, N - 1)))
        r = rates_for(rng.choice(["plus", "minus"]), 1.0, rng.uniform(0, 4, N), deltas)
        assert r.isotropic_nn and r.isotropic_nnn
        assert r.residual_nn < 1e-8
        assert r.residual_nnn < 1e-8


def test_single_axis_drive_is_anisotropic():
    # along e2 the bond projections are (1/2, 1/2, -1): bond 3 carries a
    # different Bessel index, so |g0| cannot be uniform
    A = 2.0
    spec = build_custom_drive(1.0, [(1, 0.0, 0.0, A, 0.0)])
    r = derive_rates(fourier_components(spec, GEOM, 1.0))
    assert not r.isotropic_nn
    assert r.residual_nn > 1e-3
    assert abs(abs(r.g0[0]) - abs(jv(0, A / 2))) < 1e-10
    assert abs(abs(r.g0[2]) - abs(jv(0, A))) < 1e-10


def test_tau0_real_random_drives():
    rng = np.random.default_rng(3)
    for _ in range(20):
        N = int(rng.integers(1, 4))
        deltas = np.concatenate(([0.0], rng.uniform(-np.pi, np.pi, N - 1)))
        r = rates_for(rng.choice(["plus", "minus"]), 1.0, rng.uniform(0, 4, N), deltas)
        assert abs(r.tau0.imag) < 1e-10


def test_gauge_phase_matches_common_nn_phase():
    r = rates_for("plus", 1.0, [2.2, 2.6], [0.0, 0.27])
    assert r.g0[0] == pytest.approx(r.j1 * np.exp(1j * r.gauge_phase))


def test_phi_convention_and_wrap():
    r = rates_for("plus", 1.0, [1.3, 0.9], [0.0, 0.7])
    assert -np.pi < r.phi <= np.pi
    assert r.phi == pytest.approx(np.angle(r.tau[0]))
    assert r.j2 == pytest.approx(abs(r.tau[0]))


# ---------------------------------------------------------------------------
# scaling laws

def test_scaling_in_j0():
    a, d = [1.7, 0.6], [0.0, 1.1]
    r1 = rates_for("plus", 1.0, a, d, j0=1.0)
    r2 = rates_for("plus", 1.0, a, d, j0=2.0)
    assert r2.j1 == pytest.approx(2 * r1.j1, rel=1e-12)
    assert np.allclose(r2.tau, 4 * r1.tau, rtol=1e-12)


def test_scaling_in_omega():
    # amplitudes are stored as multiples of omega, so the same numbers at
    # doubled omega realize fixed A/omega
    a, d = [1.7, 0.6], [0.0, 1.1]
    r1 = rates_for("plus", 1.0, a, d)
    r2 = rates_for("plus", 2.0, a, d)
    assert r2.j1 == pytest.approx(r1.j1, rel=1e-10)
    assert np.allclose(r2.tau, r1.tau / 2, rtol=1e-10)


def test_truncation_convergence():
    spec = build_family_drive("plus", 1.0, [2.5, 1.5], [0.0, -0.4])
    sp = fourier_components(spec, GEOM, 1.0)
    r1 = derive_rates(sp)
    sp2 = fourier_components(spec, GEOM, 1.0, n_max=sp.n_max + 10)
    r2 = derive_rates(sp2)
    assert np.abs(r1.tau - r2.tau).max() < 1e-12


def test_json_dict_shape():
    r = rates_for("plus", 1.0, [1.0], [0.0])
    d = r.to_json_dict()
    assert len(d["g0"]) == 3 and len(d["tau"]) == 3
    assert set(d["residuals"]) == {"nn", "nnn"}
    for key in ("j1", "j2", "phi", "delta_shift", "gauge_phase"):
        assert isinstance(d[key], float)
