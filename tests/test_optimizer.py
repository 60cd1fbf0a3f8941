import numpy as np
import pytest
from scipy.optimize import brentq, minimize_scalar
from scipy.special import jv

from floqchern import (
    OptimizationProblem,
    build_family_drive,
    default_geometry,
    derive_rates,
    evaluate_candidate,
    fourier_components,
    maximize,
    phase_map,
    random_search_best,
    wrap_angle,
)
from floqchern.cli import main as cli_main
from floqchern import optimizer
from floqchern.drive import SpectrumTruncationError, _grid_size, _quadrature_sizes
from floqchern.optimizer import (_candidate_batch, _candidate_rates, _family_bond_amplitudes,
                                 sobol_starts)


def test_wrap_angle_window():
    assert wrap_angle(np.pi) == pytest.approx(np.pi)
    assert wrap_angle(-np.pi) == pytest.approx(np.pi)
    assert wrap_angle(3 * np.pi / 2) == pytest.approx(-np.pi / 2)
    assert wrap_angle(0.3) == pytest.approx(0.3)


# ---------------------------------------------------------------------------
# candidate evaluation

def test_candidate_zero_amplitudes():
    R, j1, phi = evaluate_candidate("plus", 2, np.zeros(3))
    assert R == 0
    assert j1 == pytest.approx(1.0)
    assert np.isnan(phi)


def test_candidate_circular_phase_is_exactly_half_pi():
    R, j1, phi = evaluate_candidate("plus", 1, [1.0])
    assert phi == pytest.approx(np.pi / 2, abs=1e-12)
    R, j1, phi = evaluate_candidate("minus", 1, [1.0])
    assert phi == pytest.approx(-np.pi / 2, abs=1e-12)


@pytest.mark.parametrize("family", ["plus", "minus"])
@pytest.mark.parametrize("N", [1, 2, 3])
def test_candidate_rates_match_reference_chain(family, N):
    # the optimizer's evaluator skips the DriveSpec but must reproduce
    # build_family_drive -> fourier_components -> derive_rates bit for bit
    rng = np.random.default_rng(100 + N)
    for _ in range(40):
        p = np.concatenate((rng.uniform(0.0, 5.0, N), rng.uniform(-4.0, 4.0, N - 1)))
        deltas = np.concatenate(([0.0], wrap_angle(p[N:])))
        spec = build_family_drive(family, 1.0, p[:N], deltas)
        r = derive_rates(fourier_components(spec, default_geometry(), 1.0))
        R, j1, phi, defined, j2 = _candidate_rates(family, N, p)
        assert (R, j1, phi, defined, j2) == (r.j2 / r.j1, r.j1, r.phi, r.phi_defined, r.j2)


def test_candidate_ratio_invariant_under_j0():
    # R is j2/j1 * omega/j0; doubling j0 at fixed omega must not move it
    geom = default_geometry()
    spec = build_family_drive("plus", 1.0, [1.3, 0.7], [0.0, 0.8])
    r1 = derive_rates(fourier_components(spec, geom, 1.0))
    r2 = derive_rates(fourier_components(spec, geom, 2.0))
    R1 = (r1.j2 / r1.j1) * (1.0 / r1.j0)
    R2 = (r2.j2 / r2.j1) * (1.0 / r2.j0)
    assert R1 == pytest.approx(R2, rel=1e-12)


def test_problem_validation():
    with pytest.raises(ValueError):
        OptimizationProblem(phi_target=0.0, r_threshold=1.5)
    with pytest.raises(ValueError):
        OptimizationProblem(phi_target=0.0, r_threshold=0.5, N=0)
    with pytest.raises(ValueError):
        OptimizationProblem(phi_target=0.0, r_threshold=0.5, family="custom")
    with pytest.raises(ValueError, match="n_starts"):
        OptimizationProblem(phi_target=0.0, r_threshold=0.5, n_starts=0)


def test_sobol_starts_deterministic_and_in_box():
    prob = OptimizationProblem(phi_target=0.0, r_threshold=0.25, N=3, n_starts=16, seed=9)
    s1 = sobol_starts(prob)
    s2 = sobol_starts(prob)
    assert np.array_equal(s1, s2)
    assert s1.shape == (16, 5)
    assert (s1[:, :3] >= 0).all() and (s1[:, :3] <= prob.amp_bound).all()
    assert (np.abs(s1[:, 3:]) <= np.pi).all()


# ---------------------------------------------------------------------------
# maximization (small start counts here; full-size runs live in acceptance)

@pytest.fixture(scope="module")
def small_max():
    prob = OptimizationProblem(phi_target=np.pi / 2, r_threshold=0.25,
                               n_starts=12, seed=42)
    return prob, maximize(prob, workers=1)


def test_maximize_finds_monochromatic_optimum(small_max):
    prob, res = small_max
    assert res.feasible
    assert abs(res.p_star[1]) <= 0.05      # A2 collapses
    assert res.R_value > 1.5
    assert res.j1_over_j0 >= 0.25 - optimizer.FEAS_TOL


def test_maximize_deterministic(small_max):
    prob, res = small_max
    again = maximize(prob, workers=1)
    assert np.array_equal(res.p_star, again.p_star)
    assert res.R_value == again.R_value
    assert res.starts_converged == again.starts_converged


def test_feasibility_soundness(small_max):
    prob, res = small_max
    R, j1, phi = evaluate_candidate(prob.family, prob.N, res.p_star)
    assert R == pytest.approx(res.R_value, rel=1e-12)
    assert abs(wrap_angle(phi - prob.phi_target)) <= optimizer.PHI_TOL
    assert j1 >= prob.r_threshold - optimizer.FEAS_TOL


def test_maximize_parallel_matches_serial(small_max):
    prob, res = small_max
    par = maximize(prob, workers=2)
    assert np.array_equal(res.p_star, par.p_star)


def test_multistart_beats_cheap_random_search(small_max):
    prob, res = small_max
    assert res.R_value >= random_search_best(prob, 500, seed=3)


def test_maximize_reaches_monochromatic_optimum():
    # at phi = pi/2 the N = 2 optimum is the N = 1 one (A2 = 0): the bounded
    # 1-D maximum of R(A) under J0(A) >= r_th, edge included
    r_th = 0.25
    edge = brentq(lambda A: jv(0, A) - r_th, 0.0, 2.4048, xtol=1e-15)
    R_of = lambda A: evaluate_candidate("plus", 1, [A])[0]
    inner = minimize_scalar(lambda A: -R_of(A), bounds=(0.0, edge), method="bounded")
    R_opt = max(-inner.fun, R_of(edge))
    prob = OptimizationProblem(phi_target=np.pi / 2, r_threshold=r_th, N=2,
                               n_starts=4, seed=42)
    res = maximize(prob, workers=1)
    assert res.feasible
    assert abs(res.R_value - R_opt) <= 1e-9


def test_start_records_count_work(small_max):
    prob, res = small_max
    for r in res.best_per_start:
        assert r["n_eval"] > r["n_iter"] >= 1
        assert r["converged"] == (r["status"] == 0)
    mirror = OptimizationProblem(phi_target=-np.pi / 2, r_threshold=0.25, family="minus")
    images = [optimizer._image_record(r, mirror, True, False) for r in res.best_per_start]
    assert ([(r["n_eval"], r["n_iter"], r["status"]) for r in images]
            == [(r["n_eval"], r["n_iter"], r["status"]) for r in res.best_per_start])


def test_family_mirror_pointwise():
    # conjugation oracle: the minus family at (A, -delta) realizes the
    # mirrored effective rates of the plus family at (A, +delta)
    rng = np.random.default_rng(8)
    for _ in range(8):
        p = np.concatenate((rng.uniform(0.1, 4, 2), rng.uniform(-np.pi, np.pi, 1)))
        pm = p.copy()
        pm[2] = -pm[2]
        Rp, j1p, php = evaluate_candidate("plus", 2, p)
        Rm, j1m, phm = evaluate_candidate("minus", 2, pm)
        assert Rm == pytest.approx(Rp, abs=1e-12)
        assert j1m == pytest.approx(j1p, abs=1e-12)
        assert phm == pytest.approx(-php, abs=1e-10)


@pytest.mark.parametrize("family", ["plus", "minus"])
@pytest.mark.parametrize("N", [2, 3])
def test_even_harmonic_negation_pointwise(family, N):
    # negating every even-m harmonic maps phi -> pi - phi at fixed R and
    # j1/j0; for N <= 3 (m = 1, 2, 4) that is delta_n -> delta_n + pi on
    # every free phase
    rng = np.random.default_rng(30 + N)
    for _ in range(8):
        p = np.concatenate((rng.uniform(0.1, 4, N), rng.uniform(-np.pi, np.pi, N - 1)))
        q = p.copy()
        q[N:] += np.pi
        R, j1, phi = evaluate_candidate(family, N, p)
        Rq, j1q, phiq = evaluate_candidate(family, N, q)
        assert Rq == pytest.approx(R, abs=1e-12)
        assert j1q == pytest.approx(j1, abs=1e-12)
        assert abs(wrap_angle(phiq - (np.pi - phi))) <= 1e-10


def test_family_mirror_optimized(small_max):
    prob, res = small_max
    mirror = OptimizationProblem(phi_target=-np.pi / 2, r_threshold=0.25,
                                 family="minus", n_starts=12, seed=42)
    res_m = maximize(mirror, workers=1)
    assert res_m.feasible
    assert abs(res_m.R_value - res.R_value) < 1e-6


def test_sweep_takes_optimum_over_both_families(tmp_path, capsys):
    targets = [-np.pi / 2, -np.pi / 4, np.pi / 4, np.pi / 2, 0.0, np.pi]
    assert cli_main(["sweep", "--phi-list=" + ",".join(repr(t) for t in targets),
                     "--r-th", "0.25", "--starts", "8", "--seed", "42",
                     "--out", str(tmp_path / "sweep")]) == 0
    assert cli_main(["optimize", "--phi-target", repr(np.pi / 2), "--r-th", "0.25",
                     "--starts", "4", "--seed", "42", "--out", str(tmp_path / "opt")]) == 0
    capsys.readouterr()
    head_opt = (tmp_path / "opt" / "optimize.csv").read_text().split("\n")[0].split(",")
    lines = (tmp_path / "sweep" / "sweep.csv").read_text().strip().split("\n")
    header = lines[0].split(",")
    for head in (header, head_opt):
        assert head[head.index("im_R_exp_iphi") + 1] == "family"
        assert head[head.index("family") + 1] == "A1"
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    R = {float(r["phi_target"]): float(r["R"]) for r in rows}
    for t in (np.pi / 4, np.pi / 2):
        assert abs(R[-t] - R[t]) <= 1e-10
    # 0 and pi are images under phi -> pi - phi of one maximization, and at
    # both the two families tie exactly, which the plus family wins
    assert R[np.pi] == R[0.0]
    assert [r["family"] for r in rows[4:]] == ["plus", "plus"]
    for r in rows:
        assert r["feasible"] == "1"
        assert r["family"] == ("minus" if float(r["phi_target"]) < 0 else "plus")
        assert max(abs(float(r["A1"])), abs(float(r["A2"]))) < 3.5
    # the family change between -pi/4 and pi/4 is a parameter discontinuity
    assert rows[2]["p_jump_from_prev"] == "1"


def test_worker_env_override(monkeypatch):
    from floqchern.optimizer import worker_count
    monkeypatch.setenv("FCF_THREADS", "3")
    assert worker_count() == 3
    assert worker_count(5) == 3          # the env var overrides the hint
    monkeypatch.setenv("FCF_THREADS", "junk")
    with pytest.raises(ValueError, match="FCF_THREADS"):
        worker_count()
    monkeypatch.delenv("FCF_THREADS")
    assert worker_count() >= 1
    assert worker_count(2) == 2


def test_infeasible_target_reported():
    # no drive can hold j1/j0 >= 0.999 while bending phi far off +-pi/2 at N=1
    prob = OptimizationProblem(phi_target=0.3, r_threshold=0.999, family="plus",
                               N=1, n_starts=6, seed=1)
    res = maximize(prob, workers=1)
    assert not res.feasible
    assert res.phi_residual > 0


# ---------------------------------------------------------------------------
# phase map

@pytest.fixture(scope="module")
def coarse_map():
    A1 = np.arange(0, 3.5 + 1e-9, 0.1)
    A2 = np.arange(-3.5, 3.5 + 1e-9, 0.1)
    return phase_map(A1, A2, np.pi / 2)


def test_phase_map_monochromatic_rows(coarse_map):
    pm = coarse_map
    j = int(np.argmin(np.abs(pm.A2)))     # A2 = 0 column
    phis = pm.phi[:, j]
    defined = ~np.isnan(phis)
    assert defined[1:].all()
    assert np.allclose(np.abs(phis[defined]), np.pi / 2, atol=1e-10)


def test_phase_map_coverage_and_disconnection(coarse_map):
    assert coarse_map.phase_bin_coverage(64) >= 0.99
    assert coarse_map.superlevel_components(0.25) >= 2


def test_phase_map_zero_relative_phase_pins_half_pi():
    A = np.arange(0.2, 3.0, 0.4)
    pm = phase_map(A, A, 0.0)
    vals = pm.phi[~np.isnan(pm.phi)]
    assert np.allclose(np.abs(vals), np.pi / 2, atol=1e-10)


def test_phase_map_rows_format(coarse_map):
    rows = list(coarse_map.rows())
    assert len(rows) == len(coarse_map.A1) * len(coarse_map.A2)
    a1, a2, phi, r, defined = rows[0]
    assert (a1, a2) == (0.0, -3.5)
    assert defined in (0, 1)


# ---------------------------------------------------------------------------
# batched candidate kernel: bit for bit the per-point kernel

def _per_point(family, N, P):
    return [_candidate_rates(family, N, p) for p in P]


@pytest.mark.parametrize("N", [1, 2, 3])
def test_candidate_batch_matches_per_point(N):
    rng = np.random.default_rng(70 + N)
    P = np.concatenate((rng.uniform(0.0, 5.0, (150, N)), rng.uniform(-4.0, 4.0, (150, N - 1))),
                       axis=1)
    for family in ("plus", "minus"):
        batch = list(zip(*(a.tolist() for a in _candidate_batch(family, N, P))))
        assert batch == _per_point(family, N, P)


@pytest.mark.parametrize("batch_rows", [None, 7])
@pytest.mark.parametrize("family", ["plus", "minus"])
def test_phase_map_matches_per_point_kernel(family, batch_rows, monkeypatch):
    if batch_rows:
        # grouping passes of a few rows: their seams fall inside grid groups
        monkeypatch.setattr(optimizer, "_BATCH_ROWS", batch_rows)
    A1 = np.arange(0, 3.5 + 1e-9, 0.25)
    A2 = np.arange(-3.5, 3.5 + 1e-9, 0.5)
    delta2 = np.pi / 2 if family == "plus" else -np.pi / 2
    P = np.array([[a1, a2, delta2] for a1 in A1 for a2 in A2])
    # the grid spans both sample counts and several retained orders
    ms, Z = _family_bond_amplitudes(family, 2, P)
    zmax, bandwidth, mmax = _quadrature_sizes(ms, Z)
    grids = {_grid_size(mmax, z, b) for z, b in zip(zmax, bandwidth)}
    assert {M for _, M in grids} == {256, 512}
    assert len({n for n, _ in grids}) >= 5
    ref = _per_point(family, 2, P)
    phi = np.array([ph if defined else np.nan for _, _, ph, defined, _ in ref])
    j1 = np.array([r[1] for r in ref])
    pm = phase_map(A1, A2, delta2, family)
    assert np.array_equal(pm.phi.ravel(), phi, equal_nan=True)
    assert np.isnan(pm.phi).any()
    assert np.array_equal(pm.j1_over_j0.ravel(), j1)


def _random_search_loop(problem, n_samples, seed):
    """The per-sample loop random_search_best batches."""
    rng = np.random.default_rng(seed)
    lo = np.concatenate((np.zeros(problem.N), np.full(problem.N - 1, -np.pi)))
    hi = np.concatenate((np.full(problem.N, problem.amp_bound), np.full(problem.N - 1, np.pi)))
    best = -np.inf
    for _ in range(n_samples):
        p = lo + rng.random(problem.dim) * (hi - lo)
        R, j1, phi, defined, _ = _candidate_rates(problem.family, problem.N, p)
        if (defined and abs(wrap_angle(phi - problem.phi_target)) <= optimizer.PHI_TOL
                and j1 >= problem.r_threshold):
            best = max(best, R)
    return best


@pytest.mark.parametrize("n_samples", [0, 1, optimizer._BATCH_ROWS + 1, 1000])
def test_random_search_matches_per_sample_loop(n_samples):
    prob = OptimizationProblem(phi_target=np.pi / 2, r_threshold=0.25, family="minus")
    for seed in (3, 4):
        assert random_search_best(prob, n_samples, seed) == _random_search_loop(prob, n_samples, seed)
    if n_samples >= 1000:
        assert np.isfinite(random_search_best(prob, n_samples, 3))


def test_candidate_batch_raises_first_failing_row(monkeypatch):
    # a retained order of 3 truncates every drive of bandwidth above 2
    def short_window(mmax, zmax, bandwidth, n_max=None, samples=None):
        return _grid_size(mmax, zmax, bandwidth, 3 if bandwidth > 2 else n_max, samples)
    monkeypatch.setattr(optimizer, "_grid_size", short_window)
    ok = [[0.5, 0.2, 0.3], [1.0, 0.1, 0.3]]
    # the larger drive's grid group (M = 512) is evaluated after the
    # smaller one's (M = 256)
    large, small = [3.4, 1.0, 0.3], [1.0, 1.6, 0.3]
    ms, Z = _family_bond_amplitudes("plus", 2, np.array([small, large]))
    zmax, bandwidth, mmax = _quadrature_sizes(ms, Z)
    assert [short_window(mmax, z, b) for z, b in zip(zmax, bandwidth)] == [(3, 256), (3, 512)]

    def scalar_error(p):
        with pytest.raises(SpectrumTruncationError) as e:
            _candidate_rates("plus", 2, p)
        return str(e.value)
    for p in ok:
        _candidate_rates("plus", 2, p)
    assert scalar_error(large) != scalar_error(small)
    for first, second in ((large, small), (small, large)):
        for P in ([ok[0], first, ok[1], second], [ok[0], ok[1], first]):
            with pytest.raises(SpectrumTruncationError) as batch:
                _candidate_batch("plus", 2, np.array(P))
            assert str(batch.value) == scalar_error(first)
