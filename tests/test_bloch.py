import numpy as np
import pytest

from floqchern import (
    BlochModel,
    ChernIndeterminateError,
    band_energies,
    band_scan,
    chern_number,
    default_geometry,
    driven_boundary_ratios,
    h_vector,
    haldane_boundary_ratios,
    min_gap,
    phase_diagram,
)
from floqchern import bloch
from floqchern.bloch import _kb, _lowest_band_vectors, _plaquette_phases

GEOM = default_geometry()
K_POINT = (GEOM.G1 + GEOM.G2) / 3  # k.b1 = k.b2 = 2*pi/3


def model(kind="driven_hexagonal", delta=0.0, j1=1.0, j2=0.2, phi=0.0):
    return BlochModel(kind, delta, j1, j2, phi, GEOM)


# ---------------------------------------------------------------------------
# h-vector

def test_h_at_gamma():
    m = model(delta=0.3, j2=0.15, phi=0.8)
    h0, h1, h2, h3 = h_vector(m, np.zeros(2))
    assert h0 == 0
    assert h1 == pytest.approx(3.0)
    assert h2 == pytest.approx(0.0)
    assert h3 == pytest.approx(0.3 + 6 * 0.15 * np.cos(0.8))


@pytest.mark.parametrize("kind", ["driven_hexagonal", "haldane_reference"])
def test_h_vector_one_k_matches_its_row(kind):
    # one k rounds k.b as its row of a k-array does: the same bytes
    m = model(kind=kind, delta=0.3, j2=0.15, phi=0.8)
    ks = np.random.default_rng(11).uniform(-4, 4, size=(200, 2))
    rows = np.stack(h_vector(m, ks), axis=-1)
    single = np.stack([np.stack(h_vector(m, k)) for k in ks])
    assert single.tobytes() == rows.tobytes()


def test_kb_is_the_many_row_product():
    # two or more rows: the plain product, bit for bit, for any leading shape
    k = np.random.default_rng(12).uniform(-4, 4, size=(6, 5, 2))
    kb1, kb2 = _kb(k, GEOM)
    assert kb1.shape == kb2.shape == (6, 5)
    flat = k.reshape(-1, 2)
    assert kb1.tobytes() == (flat @ GEOM.b1).tobytes()
    assert kb2.tobytes() == (flat @ GEOM.b2).tobytes()
    assert [float(x) for x in _kb(k[2, 3], GEOM)] == [kb1[2, 3], kb2[2, 3]]


def test_h_at_dirac_point():
    # oracle: at K the NN sum 1 + e^{i 2pi/3} + e^{-i (-2pi/3)}... vanishes and
    # sum_i cos(k.b_i + phi) = 3 cos(phi + 2pi/3) using k.b3 = -4pi/3
    m = model(delta=0.1, j2=0.3, phi=1.1)
    _, h1, h2, h3 = h_vector(m, K_POINT)
    assert abs(h1) < 1e-12 and abs(h2) < 1e-12
    assert h3 == pytest.approx(0.1 + 6 * 0.3 * np.cos(1.1 + 2 * np.pi / 3))


@pytest.mark.parametrize("phi", [np.pi / 2, -np.pi / 2])
def test_models_coincide_at_half_pi(phi):
    rng = np.random.default_rng(4)
    for _ in range(6):
        k = rng.normal(size=2) * 3
        hd = h_vector(model(kind="driven_hexagonal", delta=0.4, phi=phi), k)
        hh = h_vector(model(kind="haldane_reference", delta=0.4, phi=phi), k)
        for a, b in zip(hd, hh):
            assert a == pytest.approx(b, abs=1e-12)


def test_model_validation():
    with pytest.raises(ValueError):
        BlochModel("driven_hexagonal", 0.0, 0.0, 0.1, 0.0, GEOM)
    with pytest.raises(ValueError):
        BlochModel("driven_hexagonal", 0.0, 1.0, -0.1, 0.0, GEOM)
    with pytest.raises(ValueError):
        BlochModel("squarelattice", 0.0, 1.0, 0.1, 0.0, GEOM)
    with pytest.raises(ValueError, match="unknown model kind"):
        phase_diagram([0.0], [0.0], N1=12, N2=12, kinds=("squarelattice",))


def test_diagram_refuses_an_unknown_kind_before_any_work(monkeypatch):
    # the kinds are read twice, checked and then built, so an iterator works
    diagrams = phase_diagram([0.0], [0.0], N1=12, N2=12, kinds=iter(["haldane_reference"]))
    assert list(diagrams) == ["haldane_reference"]
    # the known first kind's diagram is not built before the second is refused
    def no_kernel(*args):
        raise AssertionError("a band kernel was built")
    monkeypatch.setattr(bloch, "_BandKernel", no_kernel)
    with pytest.raises(ValueError, match="unknown model kind 'bogus'"):
        phase_diagram(N1=12, N2=12, kinds=("driven_hexagonal", "bogus"))


# ---------------------------------------------------------------------------
# bands and gap

def test_band_energies_pure_mass():
    # at K the NN part vanishes; with j2 = 0 only delta remains
    m = model(delta=0.7, j2=0.0)
    lo, hi = band_energies(m, K_POINT)
    assert (lo, hi) == (pytest.approx(-0.7), pytest.approx(0.7))


def test_band_energies_dirac_touching():
    m = model(delta=0.0, j2=0.0)
    lo, hi = band_energies(m, K_POINT)
    assert abs(lo) < 1e-12 and abs(hi) < 1e-12


def test_band_gap_is_twice_h_norm():
    rng = np.random.default_rng(5)
    m = model(delta=0.2, j2=0.3, phi=0.5)
    k = rng.normal(size=2)
    _, h1, h2, h3 = h_vector(m, k)
    lo, hi = band_energies(m, k)
    assert hi - lo == pytest.approx(2 * np.sqrt(h1**2 + h2**2 + h3**2))


def test_band_scan_ordering():
    scan = band_scan(model(delta=0.3, j2=0.1, phi=1.0), 12, 12)
    assert (scan.eps_hi >= scan.eps_lo).all()
    assert scan.min_gap >= 0
    with pytest.raises(ValueError, match="at least 3 x 3"):
        band_scan(model(), 12, 2)


def test_min_gap_boundary_closure():
    j2 = 0.1
    m = model(delta=3 * np.sqrt(3) * j2, j2=j2, phi=np.pi / 2)
    gap, _ = min_gap(m, 48, 48)
    assert gap < 1e-3 * j2


def test_min_gap_matches_brute_force():
    # oracle: dense scan at a resolution the refined search must beat
    m = model(delta=0.0, j2=0.1, phi=0.0)
    kb = np.linspace(0, 2 * np.pi, 301)
    kb1, kb2 = np.meshgrid(kb, kb, indexing="ij")
    from floqchern.bloch import _gap_on_kb
    brute = _gap_on_kb(m, kb1, kb2).min()
    gap, _ = min_gap(m, 48, 48)
    assert gap > 0.25
    assert gap <= brute + 1e-9
    assert gap == pytest.approx(brute, abs=5e-3)


def test_min_gap_gapped_graphene():
    m = model(delta=0.4, j2=0.0)
    gap, kloc = min_gap(m, 48, 48)
    assert gap == pytest.approx(0.8, abs=1e-9)
    kb = np.array([kloc @ GEOM.b1, kloc @ GEOM.b2]) % (2 * np.pi)
    assert np.allclose(kb, [2 * np.pi / 3, 2 * np.pi / 3], atol=1e-6) or \
        np.allclose(kb, [4 * np.pi / 3, 4 * np.pi / 3], atol=1e-6)


def test_min_gap_refines_off_grid_minimum():
    # K lies at kb = (2 pi/3, 2 pi/3), off a 47 x 47 grid: the coarse scan
    # misses the gap minimum (0.81437) and the refinement moves to it
    m = model(delta=0.4, j2=0.0)
    coarse = band_scan(m, 47, 47).min_gap
    gap, _ = min_gap(m, 47, 47)
    assert gap < coarse
    assert gap == pytest.approx(0.8, abs=1e-5)


def test_dirac_limit_touching_points():
    m = model(delta=0.0, j2=0.0)
    gap, kloc = min_gap(m, 48, 48)
    assert gap < 1e-6
    kb = np.array([kloc @ GEOM.b1, kloc @ GEOM.b2]) % (2 * np.pi)
    at_K = np.allclose(kb, [2 * np.pi / 3, 2 * np.pi / 3], atol=1e-6)
    at_Kp = np.allclose(kb, [4 * np.pi / 3, 4 * np.pi / 3], atol=1e-6)
    assert at_K or at_Kp
    # both inequivalent points touch
    for frac in (1 / 3, 2 / 3):
        lo, hi = band_energies(m, frac * (GEOM.G1 + GEOM.G2))
        assert hi - lo < 1e-12


# ---------------------------------------------------------------------------
# Chern numbers

def test_chern_trivial_when_time_reversal_symmetric():
    assert chern_number(model(delta=0.5, j2=0.0), 24, 24) == 0


def test_chern_sign_convention():
    assert chern_number(model(phi=np.pi / 2, j2=0.25), 24, 24) == 1
    assert chern_number(model(phi=-np.pi / 2, j2=0.25), 24, 24) == -1


def test_chern_outside_boundaries():
    j2 = 0.25
    assert chern_number(model(delta=6 * j2, j2=j2, phi=np.pi / 2), 24, 24) == 0


def test_chern_grid_doubling_invariance():
    rng = np.random.default_rng(6)
    for _ in range(5):
        phi = rng.uniform(-np.pi, np.pi)
        ratio = rng.uniform(-7, 7)
        m = model(delta=ratio * 0.25, j2=0.25, phi=phi)
        b = driven_boundary_ratios(phi)
        if min(abs(ratio - b[0]), abs(ratio - b[1])) < 0.2:
            continue  # skip near-boundary draws
        assert chern_number(m, 24, 24) == chern_number(m, 48, 48)


def test_chern_conjugation():
    for phi in np.linspace(0.3, 2.8, 4):
        m1 = model(delta=0.1, j2=0.25, phi=phi)
        m2 = model(delta=0.1, j2=0.25, phi=-phi)
        assert chern_number(m1, 24, 24) == -chern_number(m2, 24, 24)


def test_band_sum_rule():
    # highest band of h.sigma is the lowest band of -h.sigma
    for (phi, ratio) in [(np.pi / 2, 0.0), (0.7, 2.0), (-2.0, -3.0)]:
        m = model(delta=ratio * 0.25, j2=0.25, phi=phi)
        kb = 2 * np.pi * np.arange(24) / 24
        kb1, kb2 = np.meshgrid(kb, kb, indexing="ij")
        from floqchern.bloch import _h_from_kb
        _, h1, h2, h3 = _h_from_kb(m.kind, m.delta, m.j1, m.j2, m.phi, kb1, kb2)
        c_lo = _plaquette_phases(_lowest_band_vectors(h1, h2, h3)).sum() / (2 * np.pi)
        c_hi = _plaquette_phases(_lowest_band_vectors(-h1, -h2, -h3)).sum() / (2 * np.pi)
        assert round(c_lo) + round(c_hi) == 0


def test_chern_refuses_at_closure():
    j2 = 0.25
    m = model(delta=3 * np.sqrt(3) * j2, j2=j2, phi=np.pi / 2)
    with pytest.raises(ChernIndeterminateError):
        chern_number(m, 48, 48)  # grid divisible by 3 hits the Dirac point


def test_chern_integer_refuses_nan():
    from floqchern.bloch import _chern_integer
    # a NaN gap or phase is refused, and no NaN phase sum reaches round()
    with pytest.raises(ChernIndeterminateError, match="closure"):
        _chern_integer(np.nan, 1e-6, lambda: np.zeros((12, 12)))
    with pytest.raises(ChernIndeterminateError, match="plaquette"):
        _chern_integer(1.0, 1e-6, lambda: np.full((12, 12), np.nan))
    # small phases whose sum is 1.44 rad, not a multiple of 2 pi
    with pytest.raises(ChernIndeterminateError, match="not integral"):
        _chern_integer(1.0, 1e-6, lambda: np.full((12, 12), 0.01))


def test_chern_grid_validation():
    with pytest.raises(ValueError):
        chern_number(model(), 8, 8)


# ---------------------------------------------------------------------------
# phase diagram (coarse; the full Fig. 1 grid runs in the acceptance suite)

@pytest.fixture(scope="module")
def small_diagrams():
    phis = np.linspace(-np.pi, np.pi, 25)
    ratios = np.linspace(-8, 8, 25)
    return phase_diagram(phis, ratios, N1=24, N2=24)


def test_diagram_values(small_diagrams):
    for dg in small_diagrams.values():
        det = ~dg.indeterminate
        assert set(np.unique(dg.chern[det])) <= {-1, 0, 1}


def test_diagram_boundaries_within_one_cell(small_diagrams):
    for kind, curves in (("driven_hexagonal", driven_boundary_ratios),
                         ("haldane_reference", haldane_boundary_ratios)):
        dg = small_diagrams[kind]
        dr = dg.ratio_values[1] - dg.ratio_values[0]
        for i, phi in enumerate(dg.phi_values):
            bounds = curves(phi)
            col = dg.chern[i]
            det = ~dg.indeterminate[i]
            for j in range(len(col) - 1):
                if det[j] and det[j + 1] and col[j] != col[j + 1]:
                    mid = 0.5 * (dg.ratio_values[j] + dg.ratio_values[j + 1])
                    assert min(abs(mid - b) for b in bounds) <= dr


def test_diagram_half_pi_columns_agree(small_diagrams):
    dd = small_diagrams["driven_hexagonal"]
    dh = small_diagrams["haldane_reference"]
    for phi in (np.pi / 2, -np.pi / 2):
        i = int(np.argmin(np.abs(dd.phi_values - phi)))
        assert abs(dd.phi_values[i] - phi) < 1e-12  # grid hits +-pi/2 exactly
        assert np.array_equal(dd.chern[i], dh.chern[i])
        assert np.array_equal(dd.indeterminate[i], dh.indeterminate[i])


def dirac_mass_chern(kind, phi, ratio):
    """C = (sign h3(K') - sign h3(K)) / 2, K = (2pi/3, 2pi/3) in k.b
    coordinates, with the Dirac masses written out in units of j2: the
    driven model has h3(K) = ratio + 6 cos(phi + 2pi/3) and
    h3(K') = ratio + 6 cos(phi - 2pi/3); the Haldane reference adds
    3 cos(phi) to both."""
    shift = 3 * np.cos(phi) if kind == "haldane_reference" else 0.0
    m_k = ratio + 6 * np.cos(phi + 2 * np.pi / 3) + shift
    m_kp = ratio + 6 * np.cos(phi - 2 * np.pi / 3) + shift
    return int((np.sign(m_kp) - np.sign(m_k)) / 2)


def test_diagram_matches_dirac_mass_oracle(small_diagrams):
    for kind, dg in small_diagrams.items():
        det = ~dg.indeterminate
        assert det.mean() > 0.9
        for i, phi in enumerate(dg.phi_values):
            for j, ratio in enumerate(dg.ratio_values):
                if det[i, j]:
                    assert dg.chern[i, j] == dirac_mass_chern(kind, phi, ratio), (kind, phi, ratio)


def test_diagram_closure_cells_indeterminate_on_dirac_grid():
    # 30 is divisible by 3, so K and K' are grid points; at phi = +-pi/2
    # both models close their gap at delta/j2 = +-3 sqrt(3)
    b = 3 * np.sqrt(3.0)
    phis = np.array([-np.pi / 2, np.pi / 2])
    ratios = np.array([-7.0, -b, -2.0, 0.0, 2.0, b, 7.0])
    closure = np.isin(ratios, (-b, b))
    for kind, dg in phase_diagram(phis, ratios, N1=30, N2=30).items():
        for i, phi in enumerate(phis):
            assert np.array_equal(dg.indeterminate[i], closure), kind
            assert (dg.min_gap[i, closure] < 1e-12).all()
            for j in np.flatnonzero(~closure):
                assert dg.chern[i, j] == dirac_mass_chern(kind, phi, ratios[j])


@pytest.mark.parametrize("kind", ["driven_hexagonal", "haldane_reference"])
def test_diagram_cells_match_chern_number_and_band_scan(kind):
    # every cell is the chern_number and band_scan of its own model, bit for
    # bit; the phi grid holds the +-pi/2 columns, the ratio grid their
    # gap closures (indeterminate on a 24^2 grid); the diagram's models
    # carry j1 = 1 and j2 = 0.25
    N, j2 = 24, 0.25
    b = 3 * np.sqrt(3.0)
    phis = np.linspace(-np.pi, np.pi, 9)
    ratios = np.array([-8.0, -b, -4.0, -1.5, 0.0, 0.7, 2.0, b, 6.5])
    dg = phase_diagram(phis, ratios, N1=N, N2=N, kinds=(kind,))[kind]
    assert dg.indeterminate.any() and not dg.indeterminate.all()
    for i, phi in enumerate(phis):
        for j, ratio in enumerate(ratios):
            m = BlochModel(kind, ratio * j2, 1.0, j2, phi, GEOM)
            assert dg.min_gap[i, j] == band_scan(m, N, N).min_gap
            try:
                c = chern_number(m, N, N)
            except ChernIndeterminateError:
                assert dg.indeterminate[i, j] and dg.chern[i, j] == 0
            else:
                assert not dg.indeterminate[i, j] and dg.chern[i, j] == c
