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
the phases free.  Each start is stepped by reverse communication through
scipy's SLSQP routine (`_slsqp_start`, as `scipy.optimize.minimize` steps
it), and the starts of a call run in the calling process on up to
`workers` threads (`_run_starts`).  The routine is looked up, and its
scipy release checked, once per call before any thread starts; the first
error in any thread stops the others at their next round.  Each thread
steps its share of the starts in lockstep: a round evaluates the points
its live starts ask for next, values or the 2N - 1 points of a
forward-difference gradient, in one kernel call.  The constraint gradients are the objective's
quotients on the same points.  Each start memoizes its evaluations, so
that the objective and both constraints share them and no point is
evaluated twice for one start.  Every start record counts its
evaluations, iterations and SLSQP exit status (`n_eval`, `n_iter`,
`status`).  Starts come from a seeded scrambled Sobol sequence over the
box (amplitudes in [0, bound], phases in (-pi, pi]), so identical
problem + seed reproduce identical results bit for bit.  The package
draws them itself (`_sobol_points`: Joe-Kuo direction numbers, linear
matrix scramble and digital shift), byte for byte the points of scipy
1.17's `qmc.Sobol(scramble=True)`, without importing `scipy.stats`.
Starts are independent: a start's record does not depend on the others
that share its rounds.

A point is judged in one place.  One phase-gap rule, `_phase_gap`
(wrap(phi - phi_target), pi where phi is undefined), is SLSQP's
equality constraint and the phase residual.  One feasibility rule,
`_feasible`, asks for amplitudes within amp_bound + 1e-9,
|gap| <= PHI_TOL and j1/j0 >= r_threshold - FEAS_TOL; `_judged` applies
it to every start record and symmetry image, and `random_search_best`
to every sample.  One ranking rule, `_rank`, orders optima everywhere:
feasible points first, by larger R, then infeasible points by smaller
constraint residual, the sum of the two.  The reduction over starts
breaks its ties on the lexicographically smallest p, independent of
execution order.

Two exact symmetries leave R and j1/j0 unchanged: the minus family at
(A, -delta) is the mirror image (phi -> -phi) of the plus family at
(A, delta), and within a family negating every even-m harmonic maps
phi -> pi - phi.  `maximize` searches the problem's family only.
`sweep_targets` reports at each target the better of the two families'
optima, the plus family winning exact ties.  Through the two symmetries
it runs one plus-family maximization per class of equivalent targets,
all starts stepped together.

Every candidate evaluation, p -> (R, j1/j0, phi, phi_defined), goes
through one kernel, `_candidate_batch`, which takes an array of
parameter vectors: phase maps, random search, the optimizer's rounds and
`evaluate_candidate` alike.  A single row runs on its own grid in the
calling thread.  More rows are grouped by their Fourier grid in one pass
and run through the spectrum and rate code along a leading axis, in
blocks of bounded size.  For phase maps and random search the blocks run
on `worker_count()` threads; an optimizer thread evaluates its rounds
itself.  Each block depends on its own rows only, and its values are
scattered in submission order, so a row's values are bit for bit those
of the row alone, whatever the batch and the thread count.  The kernel
takes its drive-layer rules from `drive`: the bond amplitudes of the
family layout (`_family_bond_amplitudes`), the grid key that groups
drives (`_grid_key`) and the truncation limit (`_tail_fits`).  Every
thread count comes from `worker_count` and every thread is started by
`_threaded`; a count below 1 or above MAX_WORKERS is refused before any
thread starts.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import math
import os
import re
import threading
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

#: most threads FCF_THREADS, --threads or `workers` may ask for, and the
#: cap of the default; each thread holds a kernel block and a malloc arena
MAX_WORKERS = 64

#: most SLSQP starts `_run_starts` keeps live at once, over all its threads
_WINDOW = 64

#: scipy releases [first, last) whose private SLSQP routine
#: `_slsqplib.slsqp` (state dict, buffer size, mode protocol) the driver
#: was checked against
_SCIPY_CHECKED = ((1, 17, 1), (1, 18))

#: SLSQP's forward-difference step: scipy's default eps, the square root
#: of the float64 machine epsilon
_FD_STEP = 1.4901161193847656e-08

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


def worker_count(workers: int | None = None) -> int:
    """Thread count: an explicit `workers`, else the FCF_THREADS env var,
    else the cores this process may run on, at most MAX_WORKERS.  A
    FCF_THREADS that is not an integer, or a count below 1 or above
    MAX_WORKERS, raises ValueError naming its source."""
    source, n = "workers", workers
    if workers is None:
        env = os.environ.get("FCF_THREADS")
        if not env:
            return min(MAX_WORKERS, len(os.sched_getaffinity(0)))
        try:
            source, n = "FCF_THREADS", int(env)
        except ValueError:
            raise ValueError(f"FCF_THREADS must be an integer, got {env!r}") from None
    if n < 1:
        raise ValueError(f"{source} must be at least 1, got {n}")
    if n > MAX_WORKERS:
        raise ValueError(f"{source} must be at most {MAX_WORKERS}, got {n}")
    return n


def _threaded(calls: list, threads: int) -> list:
    """[call() for call in calls], computed on up to `threads` threads, the
    calling thread one of them, each taking the next call not yet taken.
    Each call runs in a copy of the caller's context, and so under its
    numpy error state (np.errstate is a context variable).  As the loop
    would, it raises the error of the first call, in order, that raises;
    no call is taken after one raised.  No thread outlives the call."""
    threads = min(threads, len(calls))
    if threads <= 1:
        return [call() for call in calls]
    results, errors = [None] * len(calls), {}
    queue, take = iter(enumerate(calls)), threading.Lock()
    context = contextvars.copy_context()

    def work():
        while True:
            with take:
                i, call = (None, None) if errors else next(queue, (None, None))
            if call is None:
                return
            try:
                results[i] = context.copy().run(call)
            except BaseException as error:
                errors[i] = error
    import concurrent.futures
    with concurrent.futures.ThreadPoolExecutor(threads - 1) as pool:
        for _ in range(threads - 1):
            pool.submit(work)
        work()
    if errors:
        raise errors[min(errors)]
    return results


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
    (n_max, M): values are (R, j1/j0, phi, phi_defined) at omega = j0 = 1,
    each of Z's leading shape, with R = j2/j1 and infinite where j1
    vanishes; index and error are those of the first drive that fails the
    truncation check or isotropy, or None and None."""
    g, tail = _peierls_components(ms, Z, 1.0, n_max, M)
    r = _rate_arrays(g, n_max, 1.0, 1.0)
    R = np.divide(r.j2, r.j1, out=np.full(np.shape(r.j1), math.inf), where=r.j1 > 0)
    values = (R, r.j1, r.phi, r.phi_defined)
    failed = ~(_tail_fits(tail, 1.0) & r.isotropic_nn & r.isotropic_nnn)
    if not failed.any():
        return values, None, None
    i = np.unravel_index(np.argmax(failed), failed.shape)
    error = _truncation_error(tail[i], n_max, 1.0) or AssertionError(
        f"family {family!r} drive broke isotropy (residuals {r.residual_nn[i]:.2e}, "
        f"{r.residual_nnn[i]:.2e}); this cannot happen for plus/minus drives")
    return values, i, error


def _candidate_batch(family, N, P, workers=None):
    """(R, j1/j0, phi, phi_defined) arrays (K,) at omega = j0 = 1 over the
    K parameter vectors P (K, 2N - 1): the one candidate kernel.

    Row by row, bit for bit the chain build_family_drive ->
    fourier_components -> derive_rates, including its grid-size rule and
    truncation check, but with the bond amplitudes built straight from p
    instead of through a validated DriveSpec.  A single row is evaluated
    on its own grid in the calling thread.  More rows are taken in runs of
    _BATCH_ROWS, grouped by grid (n_max, M) and evaluated in blocks of at
    most _BLOCK_SAMPLES complex samples, on `worker_count(workers)`
    threads.  Like a loop over the rows, it raises the error of the first
    row that fails."""
    P = np.asarray(P, dtype=float)
    K = len(P)
    workers = worker_count(workers)
    if K == 1:
        # the row as a vector: a leading axis of one costs a few us per call
        ms, Z = _family_bond_amplitudes(family, N, P[0])
        zmax, bandwidth, mmax = _quadrature_sizes(ms, Z)
        values, _, error = _candidate_block(family, ms, Z, *_grid_size(mmax, zmax, bandwidth))
        if error:
            raise error
        return tuple(v.reshape(1) for v in values)
    out = (np.empty(K), np.empty(K), np.empty(K), np.empty(K, dtype=bool))
    for start in range(0, K, _BATCH_ROWS):
        ms, Z = _family_bond_amplitudes(family, N, P[start:start + _BATCH_ROWS])
        zmax, bandwidth, mmax = _quadrature_sizes(ms, Z)
        # one pass in row order: each key's grid from its first row's own
        # sizes, and each grid's rows, grids in order of first row.  A
        # refused grid ends the plan; its row is the first failing one
        # unless a row before it fails in a planned block
        grids, rows, first = {}, {}, (len(Z), None)
        for i, key in enumerate(_grid_key(zmax, bandwidth)):
            if key not in grids:
                try:
                    grids[key] = _grid_size(mmax, zmax[i], bandwidth[i])
                except ValueError as error:
                    first = (i, error)
                    break
            rows.setdefault(grids[key], []).append(i)
        blocks = []
        for (n_max, M), grid_rows in rows.items():
            grid_rows, step = np.array(grid_rows), max(1, _BLOCK_SAMPLES // (3 * M))
            blocks += [(grid_rows[s:s + step], n_max, M) for s in range(0, len(grid_rows), step)]
        calls = [functools.partial(_candidate_block, family, ms, Z[block], n_max, M)
                 for block, n_max, M in blocks]
        for (block, _, _), (values, i, error) in zip(blocks, _threaded(calls, workers)):
            for dest, v in zip(out, values):
                dest[start + block] = v
            if error and block[i] < first[0]:
                first = (block[i], error)
        if first[1]:
            raise first[1]
    return out


def evaluate_candidate(family: str, N: int, p):
    """(R, j1_over_j0, phi) for a parameter vector; phi is NaN when the
    NNN rate vanishes (no phase constraint can then be met)."""
    R, j1, phi, defined = (v.item() for v in _candidate_batch(family, N, [p], 1))
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


def _phase_gap(problem: OptimizationProblem, phi, defined):
    """wrap(phi - phi_target), and pi where phi is undefined, elementwise:
    the one phase-gap rule."""
    return np.where(defined, wrap_angle(phi - problem.phi_target), np.pi)


def _feasible(problem: OptimizationProblem, p, j1, gap):
    """The one feasibility rule, elementwise over points p (..., dim) with
    NN ratios j1 and phase gaps gap (`_phase_gap`): amplitudes within
    amp_bound + 1e-9, |gap| <= PHI_TOL (so phi defined) and
    j1/j0 >= r_threshold - FEAS_TOL."""
    return (np.all(np.abs(p[..., :problem.N]) <= problem.amp_bound + 1e-9, axis=-1)
            & (np.abs(gap) <= PHI_TOL) & (j1 >= problem.r_threshold - FEAS_TOL))


def _judged(problem: OptimizationProblem, record, **moved):
    """A start record: `record` with the fields `moved` replaced and its
    judgement on `problem` set, `feasible` and the residuals
    `phi_residual` (|phase gap|) and `r_residual` (NN ratio below the
    floor); every field keeps its place."""
    record = {**record, **moved}
    gap = _phase_gap(problem, record["phi"], record["defined"])
    record.update(feasible=bool(_feasible(problem, record["p"], record["j1"], gap)),
                  phi_residual=abs(float(gap)),
                  r_residual=max(0.0, problem.r_threshold - record["j1"]))
    return record


def _stencil(x, lower, upper):
    """(points, dx) of scipy's 2-point forward differences at x in the box
    [lower, upper], as `approx_derivative` with abs_step _FD_STEP builds
    them: point i is x with x[i] + h[i] in place of x[i], and dx[i] is
    (x[i] + h[i]) - x[i].  A step that vanishes in x + h falls back to
    _FD_STEP * sign(x) * max(1, |x|); a step that leaves the box is
    flipped, or shortened to the far bound where neither side has room
    (`_adjust_scheme_to_bounds(x, h, 1, '1-sided', lower, upper)`)."""
    # element by element in Python floats, which round as numpy's do: a
    # stencil has 2N - 1 steps, too few for array calls to pay
    h = []
    for xi, lo, hi in zip(x.tolist(), lower.tolist(), upper.tolist()):
        step = _FD_STEP
        if (xi + step) - xi == 0:
            step = _FD_STEP * (1.0 if xi >= 0 else -1.0) * max(1.0, abs(xi))
        below, above = xi - lo, hi - xi
        if abs(step) <= max(below, above):
            if xi + step < lo or xi + step > hi:
                step = -step
        else:
            step = above if above >= below else -below
        h.append(step)
    h = np.array(h)
    points = np.repeat(x[None], len(x), axis=0)
    np.fill_diagonal(points, x + h)
    return points, (x + h) - x


def _slsqp_routine():
    """scipy's private SLSQP routine `_slsqplib.slsqp`, refused with a
    RuntimeError outside the releases of _SCIPY_CHECKED: a release may
    change its layout, which would give other optima without an error."""
    import scipy
    from scipy.optimize._slsqplib import slsqp
    first, last = _SCIPY_CHECKED
    if not first <= tuple(int(v) for v in re.findall(r"\d+", scipy.__version__)[:3]) < last:
        raise RuntimeError(
            f"scipy {scipy.__version__} is not a release the SLSQP driver was checked "
            f"against ({'.'.join(map(str, first))} up to {'.'.join(map(str, last))}, "
            f"exclusive); see README")
    return slsqp


def _slsqp_start(problem: OptimizationProblem, x0, slsqp):
    """SLSQP from one start, stepped by reverse communication as scipy
    1.17's `_minimize_slsqp` steps it through `slsqp`, the routine
    `_slsqp_routine` returns (mode 1 asks for values at x, mode -1 for
    gradients): -R is minimized under the equality
    wrap(phi - phi_target) = 0, pi where phi is undefined, and the
    inequality j1/j0 - r_threshold >= 0, with ftol 1e-12 and MAX_ITER
    iterations.  Gradients are the quotients of scipy's 2-point rule on
    `_stencil`'s points, the same points for the objective and both
    constraints.

    A generator: each value it yields is a list of points it has not yet
    evaluated, and it is sent their (R, j1/j0, phi, phi_defined) tuples
    in that order.  A memo keyed on the points' bytes keeps them, so that
    no point is evaluated twice and `n_eval` counts them.  It returns the
    start record: the optimum in canonical form (`_canonical`), `n_eval`,
    `n_iter` and SLSQP's exit `status`.
    """
    N, n = problem.N, problem.dim
    upper = np.concatenate((np.full(N, problem.amp_bound), np.full(N - 1, np.inf)))
    lower = -upper
    memo = {}

    def evaluate(points):
        new = {key: p for p in points if (key := p.tobytes()) not in memo}
        if new:
            memo.update(zip(new, (yield list(new.values()))))

    def merit(point):
        """(-R, phase gap, j1/j0 - r_threshold) at an evaluated point."""
        R, j1, phi, defined = memo[point.tobytes()]
        return -R, _phase_gap(problem, phi, defined), j1 - problem.r_threshold

    def gradients(x):
        """(n, 3) forward-difference quotients of `merit` at x."""
        points, dx = _stencil(x, lower, upper)
        yield from evaluate([x, *points])
        return (np.array([merit(p) for p in points]) - merit(x)) / dx[:, None]

    x = np.clip(np.asarray(x0, dtype=float), lower, upper)
    # SLSQP takes a missing bound as NaN
    xl, xu = (np.where(np.isinf(b), np.nan, b) for b in (lower, upper))
    m, meq = 2, 1       # two constraints, the first an equality
    state = {"acc": 1e-12, "alpha": 0.0, "f0": 0.0, "gs": 0.0, "h1": 0.0, "h2": 0.0,
             "h3": 0.0, "h4": 0.0, "t": 0.0, "t0": 0.0, "tol": 10 * 1e-12, "exact": 0,
             "inconsistent": 0, "reset": 0, "iter": 0, "itermax": MAX_ITER, "line": 0,
             "m": m, "meq": meq, "mode": 0, "n": n}
    indices = np.zeros(m + 2 * n + 2, dtype=np.int32)
    buffer = np.zeros(n * (n + 1) // 2 + 3 * m * n - (m + 5 * n + 7) * meq + 9 * m
                      + 8 * n * n + 35 * n + meq * meq + 28)
    mult = np.zeros(m + 2 * n + 2)
    C = np.zeros((m, n), order="F")
    d = np.zeros(m)
    jac = yield from gradients(x)
    fx, d[0], d[1] = merit(x)
    g, C[:] = jac[:, 0].copy(), jac[:, 1:].T
    while True:
        slsqp(state, fx, g, C, d, x, mult, xl, xu, buffer, indices)
        if state["mode"] == 1:
            yield from evaluate([x])
            fx, d[0], d[1] = merit(x)
        elif state["mode"] == -1:
            jac = yield from gradients(x)
            g, C[:] = jac[:, 0].copy(), jac[:, 1:].T
        else:
            break
    n_eval = len(memo)
    p = _canonical(x, N)
    yield from evaluate([p])
    R, j1, phi, defined = memo[p.tobytes()]
    # `_judged` sets feasible and the residuals in their places
    return _judged(problem, {"p": p, "R": R, "j1": j1, "phi": phi, "defined": defined,
                             "feasible": None, "converged": state["mode"] == 0,
                             "phi_residual": None, "r_residual": None, "n_eval": n_eval,
                             "n_iter": state["iter"], "status": state["mode"]})


def _run_starts(tasks, workers: int) -> list:
    """The records of `_slsqp_start` from each (problem, x0) of `tasks`, in
    task order, stepped on up to `workers` threads (`_threaded`).  The
    tasks are not empty and their problems share one family and N, which,
    like the SLSQP routine, are resolved once before any thread starts.
    Each thread keeps an even share of the tasks live, at most
    _WINDOW // threads, and advances them in lockstep: a round gathers the
    points its live starts ask for next and evaluates them in the thread,
    in one `_candidate_batch` call.  The threads draw tasks in order from
    one queue, so finished starts are replaced in task order and memory
    does not grow with the number of tasks.  A thread that raises stops
    the others before their next round."""
    slsqp = _slsqp_routine()
    family, N = tasks[0][0].family, tasks[0][0].N
    records = [None] * len(tasks)
    queue = iter(enumerate(tasks))
    draw, stop = threading.Lock(), threading.Event()
    threads = min(workers, len(tasks))

    def advance(entries):
        """Each (task index, start, values) sent its values: the
        (index, start, points asked for) of the starts that go on."""
        going = []
        for i, start, values in entries:
            try:
                going.append((i, start, start.send(values)))
            except StopIteration as done:
                records[i] = done.value
        return going

    def step_starts(window):
        live = []
        try:
            while not stop.is_set():
                with draw:
                    new = list(itertools.islice(queue, window - len(live)))
                # a new start always asks for points (x0 and its stencil) first
                live += advance((i, _slsqp_start(problem, x0, slsqp), None)
                                for i, (problem, x0) in new)
                if not live:
                    return
                P = [point for *_, points in live for point in points]
                # each point's (R, j1/j0, phi, phi_defined) as Python scalars
                values = zip(*(a.tolist() for a in _candidate_batch(family, N, P, 1)))
                live = advance((i, start, list(itertools.islice(values, len(points))))
                               for i, start, points in live)
        except BaseException:
            stop.set()
            raise

    # an even share of the tasks, so that each thread starts with work
    window = min(_WINDOW // threads, -(-len(tasks) // threads))
    _threaded([functools.partial(step_starts, window)] * threads, threads)
    return records


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
    return _judged(problem, record, p=p, phi=phi)


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


def sobol_starts(problem: OptimizationProblem) -> np.ndarray:
    """Seeded low-discrepancy start points over the search box."""
    lo, hi = _search_box(problem)
    return lo + _sobol_points(problem.dim, problem.n_starts, problem.seed) * (hi - lo)


def _rank(feasible: bool, R: float, phi_residual: float, r_residual: float) -> tuple:
    """Sort key of an optimum, smaller is better: feasible points first,
    by larger R, then infeasible points by smaller constraint residual,
    the sum of the two."""
    return (0, -R) if feasible else (1, phi_residual + r_residual)


def _best(records, family: str) -> OptimizationResult:
    """The best record by `_rank`: the feasible one with the largest R, or
    the smallest-residual one, flagged infeasible, when no start satisfies
    the constraints; ties go to the lexicographically smallest p,
    independent of execution order."""
    best = min(records, key=lambda r: (
        _rank(r["feasible"], r["R"], r["phi_residual"], r["r_residual"]), tuple(r["p"])))
    return OptimizationResult(
        p_star=best["p"], R_value=best["R"], j1_over_j0=best["j1"],
        phi_achieved=best["phi"], feasible=bool(best["feasible"]),
        starts_converged=sum(r["converged"] for r in records), family=family,
        best_per_start=records,
        phi_residual=best["phi_residual"], r_residual=best["r_residual"])


def _maximize_all(problems, workers: int | None = None) -> list:
    """`maximize` for each problem, with every start of every problem
    stepped in lockstep by one `_run_starts`."""
    workers = worker_count(workers)
    records = _run_starts([(problem, x0) for problem in problems
                           for x0 in sobol_starts(problem)], workers)
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
    """Best R among uniformly sampled points on the search box that are
    feasible by the optimizer's own rule (`_feasible`); -inf when no
    sample is feasible.  Serves as an optimality floor for the
    multistart result."""
    rng = np.random.default_rng(seed)
    lo, hi = _search_box(problem)
    best = -math.inf
    for start in range(0, n_samples, _BATCH_ROWS):
        # one draw of k x dim numbers is k draws of dim numbers, in order
        P = lo + rng.random((min(_BATCH_ROWS, n_samples - start), problem.dim)) * (hi - lo)
        R, j1, phi, defined = _candidate_batch(problem.family, problem.N, P)
        feasible = _feasible(problem, P, j1, _phase_gap(problem, phi, defined))
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
            res = min(optima, key=lambda r: _rank(r.feasible, r.R_value, r.phi_residual,
                                                  r.r_residual))
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

def _components(mask) -> int:
    """Number of 4-connected components of the True cells of a 2-D boolean
    array, by a two-pass scanline labelling.  The first pass labels each
    row's runs of True cells and finds the pairs of runs in adjacent rows
    that share a column, one per span of shared columns; the second joins
    each pair by union-find, and each join of two distinct roots leaves one
    component fewer.  The work grows with the cells and runs, not with a
    component's diameter."""
    mask = np.asarray(mask, dtype=bool)

    def span_starts(a):
        first = a.copy()
        first[:, 1:] &= ~a[:, :-1]
        return first
    starts = span_starts(mask)
    # the run of each True cell, numbered in row-major order
    run = np.cumsum(starts.ravel()).reshape(mask.shape) - 1
    shared = span_starts(mask[:-1] & mask[1:])
    pairs = zip(run[:-1][shared].tolist(), run[1:][shared].tolist())
    parent = list(range(int(starts.sum())))

    def root(i):
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i
    count = len(parent)
    for a, b in pairs:
        a, b = root(a), root(b)
        if a != b:
            parent[max(a, b)] = min(a, b)
            count -= 1
    return count


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
        return _components(self.j1_over_j0 >= level)

    def rows(self):
        """(A1, A2, phi, j1/j0, phi_defined) per cell, row-major in A1, as
        Python floats and ints."""
        n1, n2 = self.phi.shape
        return zip(np.repeat(self.A1, n2).tolist(), np.tile(self.A2, n1).tolist(),
                   self.phi.ravel().tolist(), self.j1_over_j0.ravel().tolist(),
                   (~np.isnan(self.phi)).ravel().astype(int).tolist())


def phase_map(A1_values, A2_values, delta2: float, family: str = "plus") -> PhaseMap:
    """Evaluate phi and j1/j0 on an (A1, A2) grid for an N = 2 drive, in
    one batched evaluation, bit for bit one `_candidate_batch` call per
    point."""
    A1_values = np.asarray(A1_values, dtype=float)
    A2_values = np.asarray(A2_values, dtype=float)
    shape = (len(A1_values), len(A2_values))
    P = np.stack(np.broadcast_arrays(A1_values[:, None], A2_values[None, :], float(delta2)),
                 axis=-1).reshape(-1, 3)
    _, j1, phi, defined = _candidate_batch(family, 2, P)
    return PhaseMap(A1=A1_values.copy(), A2=A2_values.copy(), delta2=float(delta2),
                    family=family, phi=np.where(defined, phi, np.nan).reshape(shape),
                    j1_over_j0=j1.reshape(shape))
