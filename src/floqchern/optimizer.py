"""Constrained maximization of the NNN tunneling enhancement.

The figure of merit is the dimensionless ratio R = (j2/j1)*(omega/j0),
maximized over the free drive parameters p = (A_1/w ... A_N/w,
delta_2 ... delta_N) subject to a target NNN phase phi = phi_target and a
floor j1/j0 >= r_threshold on the NN rate.  R is invariant under
rescaling of omega and j0, so candidates are evaluated at omega = j0 = 1.

Method: multistart SLSQP (sequential least squares programming, Kraft
1988) with the constraints written as constraints: -R is minimized under
the equality wrap(phi - phi_target) = 0 and the inequality
j1/j0 - r_threshold >= 0, with the amplitudes bounded by +-amp_bound and
the phases free.  Gradients are forward differences on the points and
steps SLSQP chooses for the objective: the 2N - 1 points of one gradient
reach `_run_start` together, through SLSQP's `workers` map, and are
evaluated as one batch in the calling thread; the constraint gradients
are the same quotients on the same points.  Each start memoizes its
evaluations, so that the objective and both constraints share them and
no point is evaluated twice.  Every start record counts its evaluations,
iterations and SLSQP exit status (`n_eval`, `n_iter`, `status`).  Starts
come from a seeded scrambled Sobol sequence over the box (amplitudes in
[0, bound], phases in (-pi, pi]), so identical problem + seed reproduce
identical results bit for bit.  The package draws them itself
(`_sobol_points`: Joe-Kuo direction numbers, linear matrix scramble and
digital shift), byte for byte the points of scipy 1.17's
`qmc.Sobol(scramble=True)`, without importing `scipy.stats`; problems
that share dimension, start count and seed share one draw.  Starts are
independent tasks.  One ranking rule, `_rank`, orders optima
everywhere: feasible points first, by larger R, then infeasible points
by smaller constraint residual.  The reduction over starts breaks its
ties on the lexicographically smallest p, independent of execution
order.

Two exact symmetries leave R and j1/j0 unchanged: the minus family at
(A, -delta) is the mirror image (phi -> -phi) of the plus family at
(A, delta), and within a family negating every even-m harmonic maps
phi -> pi - phi.  `maximize` searches the problem's family only.
`sweep_targets` reports at each target the better of the two families'
optima, the plus family winning exact ties.  Through the two symmetries
it runs one plus-family maximization per class of equivalent targets,
all starts mapped over one worker pool.

Phase maps, random search and SLSQP's gradients evaluate arrays of
parameter vectors at once (`_candidate_batch`): drives are grouped by
their Fourier grid and run through the spectrum and rate code along a
leading axis, in blocks of bounded size.  For phase maps and random
search the blocks run on `worker_count()` threads (FCF_THREADS
overrides the default of every usable core); each block depends on its
own rows only, and its values are scattered in submission order, so the
results are bit for bit those of the one-drive kernel `_candidate_rates`
that SLSQP's line search calls, whatever the thread count.  Both kernels
take their drive-layer rules from `drive`: the bond amplitudes of the
family layout (`_family_bond_amplitudes`), the grid key that groups
drives (`_grid_key`) and the truncation limit (`_tail_fits`).  A worker
count, from FCF_THREADS or passed as `workers`, above MAX_WORKERS is
refused before any thread or process starts.
"""

from __future__ import annotations

import contextvars
import functools
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .drive import (_family_bond_amplitudes, _grid_key, _grid_size, _peierls_components,
                    _quadrature_sizes, _tail_fits, _truncation_error, family_harmonic_integer,
                    wrap_angle)
from .effective import _rate_arrays

#: sweep targets closer than this (mod 2 pi) share one optimization
SAME_ANGLE = 1e-12

#: feasibility tolerances on |wrap(phi - phi_target)| and on j1/j0 below
#: r_threshold, and the SLSQP iteration cap per start
PHI_TOL = 1e-3
FEAS_TOL = 1e-9
MAX_ITER = 600

#: complex samples (drives x 3 bonds x grid size) one batched evaluation
#: holds at a time, so that memory does not grow with the batch
_BLOCK_SAMPLES = 1 << 15

#: drives `_candidate_batch` groups by grid at a time, and parameter
#: vectors `random_search_best` draws at a time
_BATCH_ROWS = 4096

#: most workers FCF_THREADS or --threads may ask for, threads or pool
#: processes; each thread holds a kernel block and a malloc arena
MAX_WORKERS = 64

#: most drive harmonics N a problem may have; each evaluation is a drive
#: of N harmonics, SLSQP has 2N - 1 variables, and the Sobol table below
#: covers 2 * MAX_HARMONICS - 1 dimensions
MAX_HARMONICS = 16

#: bits of a Sobol coordinate; a sequence has at most 2**_SOBOL_BITS points
_SOBOL_BITS = 30

#: Joe-Kuo direction numbers of the first 2 * MAX_HARMONICS - 1 Sobol
#: dimensions, one row each: (primitive polynomial, initial direction
#: numbers m_1 ... m_s), s the polynomial's degree.  Row 0 is that of
#: scipy's table; its dimension's direction numbers are all ones.
_SOBOL_TABLE = (
    (1, (1,)), (3, (1,)), (7, (1, 3)), (11, (1, 3, 1)), (13, (1, 1, 1)),
    (19, (1, 1, 3, 3)), (25, (1, 3, 5, 13)), (37, (1, 1, 5, 5, 17)),
    (41, (1, 1, 5, 5, 5)), (47, (1, 1, 7, 11, 19)), (55, (1, 1, 5, 1, 1)),
    (59, (1, 1, 1, 3, 11)), (61, (1, 3, 5, 5, 31)), (67, (1, 3, 3, 9, 7, 49)),
    (91, (1, 1, 1, 15, 21, 21)), (97, (1, 3, 1, 13, 27, 49)),
    (103, (1, 1, 1, 15, 7, 5)), (109, (1, 3, 1, 15, 13, 25)),
    (115, (1, 1, 5, 5, 19, 61)), (131, (1, 3, 7, 11, 23, 15, 103)),
    (137, (1, 3, 7, 13, 13, 15, 69)), (143, (1, 1, 3, 13, 7, 35, 63)),
    (145, (1, 3, 5, 9, 1, 25, 53)), (157, (1, 3, 1, 13, 9, 35, 107)),
    (167, (1, 3, 1, 5, 27, 61, 31)), (171, (1, 1, 5, 11, 19, 41, 61)),
    (185, (1, 3, 5, 3, 3, 13, 69)), (191, (1, 1, 7, 13, 1, 19, 1)),
    (193, (1, 3, 7, 5, 13, 19, 59)), (203, (1, 1, 3, 9, 25, 29, 41)),
    (211, (1, 3, 5, 13, 23, 1, 55)),
)


def worker_count(hint: int = 0) -> int:
    """Worker count: the FCF_THREADS env var, else a positive `hint`, else
    the cores this process may run on.  A FCF_THREADS that is not an
    integer, or is above MAX_WORKERS, raises ValueError."""
    env = os.environ.get("FCF_THREADS")
    if env:
        try:
            n = int(env)
        except ValueError:
            raise ValueError(f"FCF_THREADS must be an integer, got {env!r}") from None
        if n > MAX_WORKERS:
            raise ValueError(f"FCF_THREADS must be at most {MAX_WORKERS}, got {n}")
        return max(1, n)
    if hint:
        return max(1, hint)
    return len(os.sched_getaffinity(0))


def _resolve_workers(workers: int | None) -> int:
    """The worker count of a library call: `worker_count()` for None, else
    `workers`, at least 1.  A count above MAX_WORKERS raises ValueError,
    before any thread or process starts."""
    if workers is None:
        return worker_count()
    if workers > MAX_WORKERS:
        raise ValueError(f"workers must be at most {MAX_WORKERS}, got {workers}")
    return max(1, workers)


@dataclass(frozen=True)
class OptimizationProblem:
    phi_target: float
    r_threshold: float
    family: str = "plus"
    N: int = 2
    amp_bound: float = 5.0
    n_starts: int = 64
    seed: int = 0

    def __post_init__(self):
        if not math.isfinite(self.phi_target):
            raise ValueError(f"phi_target must be a finite angle, got {self.phi_target}")
        if not 0.0 <= self.r_threshold <= 1.0:
            raise ValueError("r_threshold must lie in [0, 1]")
        if self.N < 1:
            raise ValueError("N must be >= 1")
        if self.N > MAX_HARMONICS:
            raise ValueError(f"N must be at most {MAX_HARMONICS}, got {self.N}")
        if not 0 < self.amp_bound < math.inf:
            # a zero box fixes every amplitude, which SLSQP's difference
            # stencil leaves out; a negative one has no points at all
            raise ValueError(f"amp_bound must be positive and finite, got {self.amp_bound}")
        if self.n_starts < 1:
            raise ValueError(f"n_starts must be >= 1, got {self.n_starts}")
        if self.n_starts > 1 << _SOBOL_BITS:
            raise ValueError(f"n_starts must be at most 2**{_SOBOL_BITS} (the distinct "
                             f"points of a Sobol sequence), got {self.n_starts}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.family not in ("plus", "minus"):
            raise ValueError("optimization families are 'plus' and 'minus'")

    @property
    def dim(self) -> int:
        return 2 * self.N - 1


@dataclass
class OptimizationResult:
    p_star: np.ndarray
    R_value: float
    j1_over_j0: float
    phi_achieved: float
    feasible: bool
    starts_converged: int
    family: str
    best_per_start: list = field(default_factory=list)
    phi_residual: float = 0.0
    r_residual: float = 0.0


def _candidate_block(family, ms, Z, n_max: int, M: int):
    """(values, index, error) for bond amplitudes Z (..., 3, N) on one grid
    (n_max, M): values are (j1/j0, phi, phi_defined, j2) at omega = j0 = 1,
    each of Z's leading shape; index and error are those of the first drive
    that fails the truncation check or isotropy, or None and None."""
    g, tail = _peierls_components(ms, Z, 1.0, n_max, M)
    r = _rate_arrays(g, n_max, 1.0, 1.0)
    values = (r.j1, r.phi, r.phi_defined, r.j2)
    failed = ~(_tail_fits(tail, 1.0) & r.isotropic_nn & r.isotropic_nnn)
    if not failed.any():
        return values, None, None
    i = np.unravel_index(np.argmax(failed), failed.shape)
    error = _truncation_error(tail[i], n_max, 1.0) or AssertionError(
        f"family {family!r} drive broke isotropy (residuals {r.residual_nn[i]:.2e}, "
        f"{r.residual_nnn[i]:.2e}); this cannot happen for plus/minus drives")
    return values, i, error


def _candidate_rates(family, N, p):
    """(R, j1/j0, phi, phi_defined, j2) at omega = j0 = 1.

    Bit for bit the chain build_family_drive -> fourier_components ->
    derive_rates, including its grid-size rule and truncation check, but
    with the bond amplitudes built straight from p instead of through a
    validated DriveSpec.  `_candidate_batch` for one drive, without its
    grouping step.
    """
    ms, Z = _family_bond_amplitudes(family, N, np.asarray(p, dtype=float))
    zmax, bandwidth, mmax = _quadrature_sizes(ms, Z)
    n_max, M = _grid_size(mmax, zmax, bandwidth)
    (j1, phi, defined, j2), _, error = _candidate_block(family, ms, Z, n_max, M)
    if error:
        raise error
    j1, j2 = float(j1), float(j2)
    return j2 / j1 if j1 > 0 else math.inf, j1, float(phi), bool(defined), j2


def _candidate_blocks(family, ms, Z, blocks, workers):
    """`_candidate_block` of Z[rows] on its grid for each (rows, n_max, M)
    of `blocks`, in order, on up to `workers` threads.  The threads run
    private helpers only, and no thread outlives the call."""
    workers = min(workers, len(blocks))
    if workers <= 1:
        return [_candidate_block(family, ms, Z[rows], n_max, M) for rows, n_max, M in blocks]
    from concurrent.futures import ThreadPoolExecutor
    # each block runs in a copy of the caller's context, so that it keeps
    # the caller's numpy error state (np.errstate is a context variable)
    with ThreadPoolExecutor(workers) as pool:
        futures = [pool.submit(contextvars.copy_context().run,
                               _candidate_block, family, ms, Z[rows], n_max, M)
                   for rows, n_max, M in blocks]
        return [f.result() for f in futures]


def _candidate_batch(family, N, P, workers=None):
    """(R, j1/j0, phi, phi_defined, j2) arrays (K,) over the K parameter
    vectors P (K, 2N - 1), bit for bit K calls of `_candidate_rates`.  Each run of
    _BATCH_ROWS rows is grouped by grid (n_max, M) and evaluated in blocks
    of at most _BLOCK_SAMPLES complex samples, on `workers` threads
    (`_candidate_blocks`; default `worker_count()`); like a loop over the
    rows, it raises the error of the first row that fails."""
    P = np.asarray(P, dtype=float)
    K = len(P)
    workers = _resolve_workers(workers)
    j1, phi, defined, j2 = np.empty(K), np.empty(K), np.empty(K, dtype=bool), np.empty(K)
    for start in range(0, K, _BATCH_ROWS):
        ms, Z = _family_bond_amplitudes(family, N, P[start:start + _BATCH_ROWS])
        zmax, bandwidth, mmax = _quadrature_sizes(ms, Z)
        keys = _grid_key(zmax, bandwidth)
        sizes = np.unique(keys)
        grids = [_grid_size(mmax, k.real, k.imag) for k in sizes.tolist()]
        order = list(dict.fromkeys(grids))
        label = np.array([order.index(grid) for grid in grids])[np.searchsorted(sizes, keys)]
        blocks = []
        for i, (n_max, M) in enumerate(order):
            rows = np.flatnonzero(label == i)
            step = max(1, _BLOCK_SAMPLES // (3 * M))
            blocks += [(rows[s:s + step], n_max, M) for s in range(0, len(rows), step)]
        first = (len(Z), None)
        for (block, _, _), (values, i, error) in zip(
                blocks, _candidate_blocks(family, ms, Z, blocks, workers)):
            at = start + block
            for dest, v in zip((j1, phi, defined, j2), values):
                dest[at] = v
            if error and block[i] < first[0]:
                first = (block[i], error)
        if first[1]:
            raise first[1]
    R = np.divide(j2, j1, out=np.full(K, math.inf), where=j1 > 0)
    return R, j1, phi, defined, j2


def evaluate_candidate(family: str, N: int, p):
    """(R, j1_over_j0, phi) for a parameter vector; phi is NaN when the
    NNN rate vanishes (no phase constraint can then be met)."""
    R, j1, phi, defined, _ = _candidate_rates(family, N, p)
    return R, j1, (phi if defined else math.nan)


def _canonical(p, N):
    """Canonical representative of a parameter vector's gauge class.

    Three exact redundancies are quotiented out: a half-period time shift
    (negates the amplitudes of odd harmonic integers, used to make A_1
    nonnegative), per-harmonic amplitude sign flips absorbed into the
    phase lags (A_n >= 0 for n >= 2), and the reflection
    delta_n -> pi - delta_n applied to every free phase at once (pins
    delta_2 into [-pi/2, pi/2]).  All leave (R, j1/j0, phi) invariant.
    """
    p = np.array(p, dtype=float)
    p[N:] = wrap_angle(p[N:])
    if p[0] < 0:
        for n in range(N):
            if family_harmonic_integer(n + 1) % 2 == 1:
                p[n] = -p[n]
    for n in range(1, N):
        if p[n] < 0:
            p[n] = -p[n]
            p[N + n - 1] = wrap_angle(p[N + n - 1] + np.pi)
    if N >= 2 and not -np.pi / 2 <= p[N] <= np.pi / 2:
        p[N:] = wrap_angle(np.pi - p[N:])
    return p


def _negate_even(p, N):
    """Same-family image of p with phi -> pi - phi and (R, j1/j0) kept:
    every even-m harmonic negated (delta_n -> delta_n + pi), which is
    F -> -F up to a half-period time shift."""
    p = np.array(p, dtype=float)
    for n in range(2, N + 1):
        if family_harmonic_integer(n) % 2 == 0:
            p[N + n - 2] += np.pi
    return p


def _mirror(p, N):
    """Other-family image of p with phi -> -phi and (R, j1/j0) kept:
    delta_n -> -delta_n (the drive run backwards in time)."""
    p = np.array(p, dtype=float)
    p[N:] = -p[N:]
    return p


def _start_record(problem: OptimizationProblem, p, R, j1, phi, defined, converged):
    """Start record: constraint residuals and feasibility of a point."""
    phi_res = abs(float(wrap_angle(phi - problem.phi_target))) if defined else np.pi
    r_res = max(0.0, problem.r_threshold - j1)
    amps_ok = bool(np.all(np.abs(p[:problem.N]) <= problem.amp_bound + 1e-9))
    feasible = (defined and phi_res <= PHI_TOL
                and j1 >= problem.r_threshold - FEAS_TOL and amps_ok)
    return {"p": p, "R": R, "j1": j1, "phi": phi, "defined": defined,
            "feasible": feasible, "converged": converged,
            "phi_residual": phi_res, "r_residual": r_res}


def _run_start(args):
    """SLSQP from one start point.  The phase gap is pi where phi is
    undefined; the objective and both constraints share each evaluation
    through a memo keyed on the point.

    Gradients are forward differences on the points and steps that SLSQP
    chooses for the objective (scipy's 2-point rule, bound flips
    included).  SLSQP hands those points to its `workers` map at once, and
    the map evaluates the ones not yet in the memo as one
    `_candidate_batch` in the calling thread.  The constraint Jacobians,
    which SLSQP asks for next at the same point, are the same quotients on
    the same points, read from the memo.
    """
    from scipy.optimize import minimize
    problem, x0 = args
    family, N = problem.family, problem.N
    memo = {}
    stencil = []    # the objective's latest forward-difference points

    def rates(x):
        key = x.tobytes()
        if key not in memo:
            memo[key] = _candidate_rates(family, N, x)
        return memo[key]

    def forward_points(fun, points):
        points = list(points)
        stencil[:] = points
        new = {key: x for x in points if (key := x.tobytes()) not in memo}
        if new:
            batch = _candidate_batch(family, N, list(new.values()), workers=1)
            # as Python scalars, the tuples `_candidate_rates` returns
            memo.update(zip(new, zip(*(a.tolist() for a in batch))))
        return map(fun, points)

    def gradient(con):
        """x -> the forward-difference gradient of `con` at x on the
        objective's points x_i at x: (con(x_i) - con(x)) / (x_i[i] - x[i]),
        the quotient of scipy's 2-point rule."""
        def jac(x):
            c = con(x)
            row = []
            for i, point in enumerate(stencil):
                base = point.copy()
                base[i] = x[i]
                if base.tobytes() != x.tobytes():
                    break
                row.append((con(point) - c) / (point[i] - x[i]))
            if len(row) != len(x):
                raise AssertionError("SLSQP asked for a constraint Jacobian away from "
                                     "the objective's difference points")
            return row
        return jac

    def phase_gap(x):
        _, _, phi, defined, _ = rates(x)
        return wrap_angle(phi - problem.phi_target) if defined else np.pi

    def nn_floor(x):
        return rates(x)[1] - problem.r_threshold

    bounds = [(-problem.amp_bound, problem.amp_bound)] * N + [(None, None)] * (N - 1)
    res = minimize(
        lambda x: -rates(x)[0], np.asarray(x0, dtype=float), method="SLSQP", bounds=bounds,
        constraints=({"type": "eq", "fun": phase_gap, "jac": gradient(phase_gap)},
                     {"type": "ineq", "fun": nn_floor, "jac": gradient(nn_floor)}),
        options={"ftol": 1e-12, "maxiter": MAX_ITER, "workers": forward_points})
    n_eval = len(memo)
    p = _canonical(res.x, N)
    R, j1, phi, defined, _ = rates(p)
    record = _start_record(problem, p, R, j1, phi, defined, bool(res.success))
    record.update(n_eval=n_eval, n_iter=int(res.nit), status=int(res.status))
    return record


def _image_record(record, problem: OptimizationProblem, mirror: bool, negate_even: bool):
    """A start record carried over by the exact symmetries onto `problem`
    (its target, family and threshold), without a new evaluation."""
    p, phi = record["p"], record["phi"]
    if negate_even:
        p, phi = _negate_even(p, problem.N), float(wrap_angle(np.pi - phi))
    if mirror:
        p, phi = _mirror(p, problem.N), float(wrap_angle(-phi))
    if mirror or negate_even:
        p = _canonical(p, problem.N)
    image = _start_record(problem, p, record["R"], record["j1"], phi, record["defined"],
                          record["converged"])
    image.update((key, record[key]) for key in ("n_eval", "n_iter", "status"))
    return image


def _search_box(problem: OptimizationProblem):
    """(lo, hi) of the search box: amplitudes in [0, amp_bound], the free
    phases in [-pi, pi]."""
    lo = np.concatenate((np.zeros(problem.N), np.full(problem.N - 1, -np.pi)))
    hi = np.concatenate((np.full(problem.N, problem.amp_bound), np.full(problem.N - 1, np.pi)))
    return lo, hi


@functools.cache
def _direction_numbers() -> np.ndarray:
    """(31, 30) uint32 direction numbers of `_SOBOL_TABLE`, scaled to 30
    bits: column j holds v_j * 2**(29 - j), by the Joe-Kuo recurrence."""
    v = np.ones((len(_SOBOL_TABLE), _SOBOL_BITS), dtype=np.uint32)
    for d, (poly, m) in enumerate(_SOBOL_TABLE[1:], 1):
        s, row = len(m), list(m)
        for j in range(s, _SOBOL_BITS):
            new = row[j - s]
            for k in range(s):
                if poly >> (s - 1 - k) & 1:
                    new ^= row[j - k - 1] << (k + 1)
            row.append(new)
        v[d] = row
    v <<= np.arange(_SOBOL_BITS - 1, -1, -1, dtype=np.uint32)
    v.setflags(write=False)     # one array serves every caller
    return v


def _sobol_points(dim: int, n: int, seed: int) -> np.ndarray:
    """(n, dim) scrambled Sobol points in [0, 1), byte for byte scipy's
    `qmc.Sobol(dim, scramble=True, seed=seed).random(n)`: a digital shift
    and a lower-triangular GF(2) matrix per dimension, drawn in that
    order from `default_rng(seed)`, scramble the direction numbers, and
    the points follow in Gray-code order from the shift."""
    rng = np.random.default_rng(seed)
    bit = np.arange(_SOBOL_BITS, dtype=np.uint32)
    shift = rng.integers(2, size=(dim, _SOBOL_BITS), dtype=np.uint32) @ (1 << bit)
    ltm = np.tril(rng.integers(2, size=(dim, _SOBOL_BITS, _SOBOL_BITS), dtype=np.uint32))
    ltm[:, bit, bit] = 1
    msb = bit[::-1]     # bits of a coordinate, most significant first
    digits = _direction_numbers()[:dim, :, None] >> msb & 1
    # one GF(2) matrix product per dimension: row r of its matrix makes digit r
    digits = (digits @ ltm.transpose(0, 2, 1)) & 1
    v = (digits << msb).sum(axis=2, dtype=np.uint32)
    # the lowest zero bit of i is one below the bit length of i ^ (i + 1)
    i = np.arange(n - 1, dtype=np.uint32)
    lowest_zero = np.frexp(i ^ (i + 1))[1] - 1
    x = np.bitwise_xor.accumulate(np.concatenate((shift[None], v.T[lowest_zero])), axis=0)
    return x * 2.0 ** -_SOBOL_BITS


def sobol_starts(problem: OptimizationProblem, draws: dict | None = None) -> np.ndarray:
    """Seeded low-discrepancy start points over the search box.  `draws`,
    if given, keeps the unit-cube points by (dim, n_starts, seed), so
    that calls for problems that differ only in target, threshold, family
    or box share one draw."""
    key = (problem.dim, problem.n_starts, problem.seed)
    if draws is None:
        draws = {}
    if key not in draws:
        draws[key] = _sobol_points(*key)
    lo, hi = _search_box(problem)
    return lo + draws[key] * (hi - lo)


def _rank(feasible: bool, R: float, residual: float) -> tuple:
    """Sort key of an optimum, smaller is better: feasible points first,
    by larger R, then infeasible points by smaller constraint residual."""
    return (0, -R) if feasible else (1, residual)


def _best(records, family: str) -> OptimizationResult:
    """The best record by `_rank`: the feasible one with the largest R, or
    the smallest-residual one, flagged infeasible, when no start satisfies
    the constraints; ties go to the lexicographically smallest p,
    independent of execution order."""
    best = min(records, key=lambda r: (
        _rank(r["feasible"], r["R"], r["phi_residual"] + r["r_residual"]), tuple(r["p"])))
    return OptimizationResult(
        p_star=best["p"], R_value=best["R"], j1_over_j0=best["j1"],
        phi_achieved=best["phi"], feasible=bool(best["feasible"]),
        starts_converged=sum(r["converged"] for r in records), family=family,
        best_per_start=records,
        phi_residual=best["phi_residual"], r_residual=best["r_residual"])


def _maximize_all(problems, workers: int | None = None) -> list:
    """`maximize` for each problem, with every start of every problem
    mapped over one worker pool."""
    workers = _resolve_workers(workers)
    draws = {}
    tasks = [(problem, x0) for problem in problems for x0 in sobol_starts(problem, draws)]
    if workers > 1 and len(tasks) >= 2 * workers:
        import multiprocessing as mp
        with mp.get_context("fork").Pool(workers) as pool:
            # fine-grained chunks: starts vary widely in iteration count
            records = pool.map(_run_start, tasks, chunksize=1)
    else:
        records = [_run_start(t) for t in tasks]
    results, i = [], 0
    for problem in problems:
        results.append(_best(records[i:i + problem.n_starts], problem.family))
        i += problem.n_starts
    return results


def maximize(problem: OptimizationProblem, workers: int | None = None) -> OptimizationResult:
    """Multistart maximization of R under the phase and NN-rate constraints,
    within the problem's drive family.

    Returns the best feasible point, or the smallest-residual point
    flagged infeasible when no start satisfies the constraints.
    """
    return _maximize_all([problem], workers)[0]


def random_search_best(problem: OptimizationProblem, n_samples: int, seed: int = 0) -> float:
    """Best R among uniformly sampled feasible points on the search box;
    -inf when no sample is feasible.  Serves as an optimality floor for
    the multistart result."""
    rng = np.random.default_rng(seed)
    lo, hi = _search_box(problem)
    best = -math.inf
    for start in range(0, n_samples, _BATCH_ROWS):
        # one draw of k x dim numbers is k draws of dim numbers, in order
        P = lo + rng.random((min(_BATCH_ROWS, n_samples - start), problem.dim)) * (hi - lo)
        R, j1, phi, defined, _ = _candidate_batch(problem.family, problem.N, P)
        feasible = (defined & (np.abs(wrap_angle(phi - problem.phi_target)) <= PHI_TOL)
                    & (j1 >= problem.r_threshold))
        if feasible.any():
            best = max(best, float(R[feasible].max()))
    return best


# ---------------------------------------------------------------------------
# Target sweeps (polar R e^{i phi_tg} data) and discontinuity detection

@dataclass
class SweepResult:
    rows: list                 # (phi_target, r_th, OptimizationResult)
    jumps: dict                # r_th -> list of (gap_index, jump_norm)


def _param_jump(res_a: OptimizationResult, res_b: OptimizationResult, N: int) -> float:
    """Distance between optima in the complex-harmonic representation
    A_n exp(-i delta_n): phases are weighted by their amplitudes, so the
    undefined phase of a vanishing harmonic carries no spurious distance.
    Infinite between families, which no single chart covers."""
    if res_a.family != res_b.family:
        return math.inf

    def z(p):
        p = np.asarray(p, dtype=float)
        return p[:N] * np.exp(-1j * np.concatenate(([0.0], p[N:])))
    return float(np.linalg.norm(z(res_b.p_star) - z(res_a.p_star)))


def _folded(a: float) -> float:
    """The member of {a, pi - a} (mod 2 pi) in [-pi/2, pi/2]."""
    a = float(wrap_angle(a))
    return a if abs(a) <= np.pi / 2 else float(wrap_angle(np.pi - a))


def _sweep_angles(phi_targets) -> list:
    """Angles to optimize the plus family at: one per class of the
    targets and their negations under phi -> pi - phi.  Targets that
    already lie in [-pi/2, pi/2] come first, then their negations, so a
    representative is an input value wherever one is available."""
    needed = list(phi_targets) + [-t for t in phi_targets]
    angles = []
    for a in [t for t in needed if abs(t) <= np.pi / 2] + [_folded(t) for t in needed]:
        if not any(abs(wrap_angle(a - b)) <= SAME_ANGLE for b in angles):
            angles.append(a)
    return angles


def _family_optimum(solved, angles, problem: OptimizationProblem) -> OptimizationResult:
    """The optimum of `problem`, carried over by the exact symmetries from
    `solved`, the plus-family results at `angles` and the problem's
    threshold: the minus family at phi is the mirror image of the plus
    family at -phi, and within a family phi and pi - phi are images
    under `_negate_even`."""
    mirror = problem.family == "minus"
    b = -problem.phi_target if mirror else problem.phi_target
    for a, base in zip(angles, solved):
        for negate_even, image in ((False, b), (True, np.pi - b)):
            if abs(wrap_angle(image - a)) <= SAME_ANGLE:
                records = [_image_record(r, problem, mirror, negate_even)
                           for r in base.best_per_start]
                return _best(records, problem.family)


def sweep_targets(phi_targets, r_thresholds, template: OptimizationProblem,
                  workers: int | None = None) -> SweepResult:
    """Optimum over both drive families at each (phi_target, r_threshold).

    The template supplies N, amp_bound, n_starts and seed.  Maximizations
    run in the plus family only, at one angle per symmetry class
    (`_sweep_angles`); each row takes the better of the two families'
    optima (`_family_optimum`) by `_rank`, plus winning exact ties.
    Parameter jumps between adjacent targets exceeding 10x the median
    jump for that threshold, and every change of family, are recorded as
    discontinuities.
    """
    phi_targets = list(phi_targets)
    r_thresholds = list(r_thresholds)
    if not phi_targets or not r_thresholds:
        raise ValueError("target lists must be nonempty")
    if not all(math.isfinite(t) for t in phi_targets):
        raise ValueError("sweep targets must be finite angles")
    angles = _sweep_angles(phi_targets)
    solved = _maximize_all([replace(template, phi_target=a, r_threshold=r_th, family="plus")
                            for r_th in r_thresholds for a in angles], workers)
    rows = []
    jumps = {}
    for k, r_th in enumerate(r_thresholds):
        base = solved[k * len(angles):(k + 1) * len(angles)]
        series = []
        for phi_tg in phi_targets:
            optima = [_family_optimum(base, angles, replace(
                template, phi_target=phi_tg, r_threshold=r_th, family=family))
                for family in ("plus", "minus")]
            # min keeps the first of equals, so plus wins exact ties
            res = min(optima, key=lambda r: _rank(r.feasible, r.R_value,
                                                  r.phi_residual + r.r_residual))
            rows.append((phi_tg, r_th, res))
            series.append(res)
        ds = [_param_jump(series[i], series[i + 1], template.N)
              for i in range(len(series) - 1)]
        finite = [d for d in ds if math.isfinite(d)]
        med = float(np.median(finite)) if finite else 0.0
        jumps[r_th] = [(i, d) for i, d in enumerate(ds) if d > max(10 * med, 1e-6)]
    return SweepResult(rows=rows, jumps=jumps)


# ---------------------------------------------------------------------------
# Phase map over (A1, A2) at fixed delta_2

@dataclass(frozen=True)
class PhaseMap:
    """Achieved NNN phase and NN ratio over an amplitude grid (N = 2,
    fixed delta_2).  phi is NaN where the NNN rate vanishes."""

    A1: np.ndarray
    A2: np.ndarray
    delta2: float
    family: str
    phi: np.ndarray
    j1_over_j0: np.ndarray

    def phase_bin_coverage(self, nbins: int = 64) -> float:
        """Fraction of uniform (-pi, pi] bins containing an achieved phi."""
        vals = self.phi[~np.isnan(self.phi)]
        idx = np.clip(((vals + np.pi) / (2 * np.pi) * nbins).astype(int), 0, nbins - 1)
        return len(np.unique(idx)) / nbins

    def superlevel_components(self, level: float) -> int:
        """Number of connected components (4-neighbor) of j1/j0 >= level."""
        from scipy import ndimage
        _, n = ndimage.label(self.j1_over_j0 >= level)
        return int(n)

    def rows(self):
        """(A1, A2, phi, j1/j0, phi_defined) per cell, row-major in A1, as
        Python floats and ints."""
        n1, n2 = self.phi.shape
        return zip(np.repeat(self.A1, n2).tolist(), np.tile(self.A2, n1).tolist(),
                   self.phi.ravel().tolist(), self.j1_over_j0.ravel().tolist(),
                   (~np.isnan(self.phi)).ravel().astype(int).tolist())


def phase_map(A1_values, A2_values, delta2: float, family: str = "plus") -> PhaseMap:
    """Evaluate phi and j1/j0 on an (A1, A2) grid for an N = 2 drive, in
    one batched evaluation, bit for bit the per-point `_candidate_rates`."""
    A1_values = np.asarray(A1_values, dtype=float)
    A2_values = np.asarray(A2_values, dtype=float)
    shape = (len(A1_values), len(A2_values))
    P = np.stack(np.broadcast_arrays(A1_values[:, None], A2_values[None, :], float(delta2)),
                 axis=-1).reshape(-1, 3)
    _, j1, phi, defined, _ = _candidate_batch(family, 2, P)
    return PhaseMap(A1=A1_values.copy(), A2=A2_values.copy(), delta2=float(delta2),
                    family=family, phi=np.where(defined, phi, np.nan).reshape(shape),
                    j1_over_j0=j1.reshape(shape))
