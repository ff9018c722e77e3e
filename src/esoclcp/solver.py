"""Staged sample-average solver for the reformulated problem.

Each stage draws a fresh, larger sample with a seed derived from the base
seed and the stage index, then runs a damped Gauss-Newton inner loop on the
stage objective: the direction solves (Abar^T Abar + nu I) d = -Abar^T Fbar
built from the sample-mean residual Jacobian and residual, falling back to
steepest descent whenever that system is unsolvable or insufficiently
downhill, and a weak Wolfe line search picks the step.  The tail threshold
Theta is re-optimized from scratch by risk.theta_star at every point the line
search may accept, with no state carried between trial points, so the inner
loop minimizes the reduced function min_Theta Nhat(z, Theta).

Most line-search trials exist only to be rejected, so _StageProblem.search
answers a trial from a lower bound of its value when that bound already
fails the sufficient-decrease test: a closed form along the search ray in
every mode, then the FB rows (erm, ev) or the tail draws and the empirical
CVaR (cvar); its docstring gives the cascade.  Bounds answer only
rejections and every point kept is evaluated exactly, so the steps taken
are those of exact evaluation.  Stages stop on a small gradient or an
iteration cap, or when a step no longer moves the point (stalled); the
schedule stops early when consecutive stage solutions agree within eps.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .cone import _check_count, _check_real, _check_vector
from .problem import ProblemSpec, realize_batch  # realize_batch: unused, perfbench/spans.py traces it
from .reformulate import recover_lcp_point
from .risk import _THETA_RTOL, SmoothingKind, _check_alpha, _check_mu, _tail_cvar, _tail_quantile, _tail_rank
from .risk import smooth_plus, smooth_plus_deriv
from .risk import theta_star  # by name: perfbench/spans.py wraps esoclcp.solver.theta_star
from .saa import RayBound, SampleEvaluator, _check_seed, draw_samples

MODES = ("cvar", "ev", "erm")

DEFAULT_SCHEDULE = (10, 100, 1000, 10000)

# a trial point is screened out when its tail bound or its empirical CVaR
# exceeds the line search's bar by more than this share of
# (|bar| + |bound| + mu) / alpha, a margin far above the rounding of either
# value (about 1e-16 log2 N of it)
_SCREEN_RTOL = 1e-9

# the tail bound is tried only while its floor(alpha N) draws are at most
# this share of the sample, and only from this many draws on: its pass
# costs about that share of a full one plus a fixed overhead of about a
# full pass at N = 100.  On the bundled example (schedule 1000,10000,
# k_max 60, one BLAS thread) the screen cut the solve time by 20-26% for
# alpha from 0.2 to 0.8, by 10% at 0.9, and not at all at 0.95; in the
# default schedule's N = 100 stage it rejected fewer than half the trials
# it was asked about and cost more than it saved
_TAIL_SHARE_MAX = 0.8
_TAIL_MIN_N = 1000

# the keys of StageResult.counts, the stage's work: line-search values asked
# for, cache hits aside; the trials the ray bound, the FB rows, the tail
# draws and the empirical CVaR answered; residual passes over the whole
# sample or the tail draws, and passes forming the FB rows alone to screen a
# trial; theta_star calls, the Theta reported in modes erm and ev included
COUNTS = (
    "trials", "ray_answers", "fb_answers", "tail_answers", "cvar_answers",
    "full_passes", "tail_passes", "fb_passes", "theta_calls",
)

# wolfe_search's first trial step, the most steps it tries, and its
# sufficient-decrease and curvature constants, 0 < _C1 < _C2 < 1
_FIRST_STEP = 1.0
_MAX_TRIALS = 60
_C1 = 1e-4
_C2 = 0.9

# the Gauss-Newton direction d is kept only when g^T d <= -_DESCENT_R ||d||;
# otherwise the stage steps along -g.  _LM_NU > 0 damps its normal equations
_DESCENT_R = 1e-8
_LM_NU = 1e-6


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the staged solve; every field has a working default."""

    alpha: float = 0.05
    mu: float = 1e-4
    schedule: tuple[int, ...] = DEFAULT_SCHEDULE
    seed: int = 42
    tol_r: float = 1e-6
    eps: float = 1e-6
    k_max: int = 500
    mode: str = "cvar"
    smoothing: SmoothingKind = SmoothingKind.CHKS

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", _check_alpha(self.alpha))
        object.__setattr__(self, "mu", _check_mu(self.mu))
        for name in ("tol_r", "eps"):
            object.__setattr__(self, name, _check_real(getattr(self, name), name, 0.0))
        schedule = tuple(_check_count(n, f"schedule[{i}]") for i, n in enumerate(self.schedule))
        if len(schedule) < 1 or any(b <= a for a, b in zip(schedule, schedule[1:])):
            raise ValueError(f"schedule must be strictly increasing positive ints, got {self.schedule}")
        object.__setattr__(self, "schedule", schedule)
        object.__setattr__(self, "seed", _check_seed(self.seed))
        object.__setattr__(self, "k_max", _check_count(self.k_max, "k_max"))
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        object.__setattr__(self, "smoothing", SmoothingKind(self.smoothing))


@dataclass(eq=False)
class StageResult:
    """Outcome of one stage: its solution, in both coordinate systems, and how the inner loop ended."""

    j: int
    N: int
    point: np.ndarray  # the stage's solution z = (x_m, u, t)
    theta: float  # the tail threshold Theta at point
    x: np.ndarray  # point recovered to the cone variables (x, u)
    u: np.ndarray
    F_at_mean: np.ndarray  # F(x, u) at the mean draw
    aloc: float  # average loss of complementarity over the stage's own sample
    grad_inf_norm: float
    inner_iters: int
    termination: str
    wall_time: float
    counts: dict[str, int]  # the stage's work, keyed by COUNTS


def stage_seed(seed: int, j: int) -> int:
    """Derived seed for stage j; a pure function of (seed, j)."""
    ss = np.random.SeedSequence(entropy=(int(seed), int(j)))
    return int(ss.generate_state(1, np.uint64)[0])


def stage_samples(spec: ProblemSpec, cfg: SolverConfig, j: int) -> np.ndarray:
    """The (N, omega_dim) draws a given stage solves over; mode ev uses the single mean draw."""
    if cfg.mode == "ev":
        return spec.mean_omega()[None, :]
    if not 1 <= j <= len(cfg.schedule):
        raise ValueError(f"stage index {j} outside schedule of length {len(cfg.schedule)}")
    return draw_samples(spec.distribution, spec.omega_dim, cfg.schedule[j - 1], stage_seed(cfg.seed, j))


def _lm_from_means(a_bar: np.ndarray, f_bar: np.ndarray, damping: np.ndarray) -> np.ndarray:
    # damped Gauss-Newton direction from the sample-mean Jacobian and residual,
    # with damping = nu I (a stage builds it once, nu = _LM_NU).  nu > 0 makes
    # the gram SPD wherever it is finite, so one LU solve needs no SPD test; a
    # non-finite mean, or overflow in the products, ends silently in the
    # step check
    with np.errstate(over="ignore", invalid="ignore"):
        d = np.linalg.solve(a_bar.T @ a_bar + damping, -(a_bar.T @ f_bar))
    if not np.isfinite(d).all():
        raise np.linalg.LinAlgError("damped normal equations produced non-finite step")
    return d


def wolfe_search(f, g) -> float:
    """Weak Wolfe line search by bracketing bisection.

    f maps a step length to the objective value along the ray, g to its
    directional derivative; the slope at zero must be negative.  The search
    tries steps from _FIRST_STEP, doubling or bisecting, _MAX_TRIALS of
    them at most, and returns the first with f(s) <= f(0) + _C1 s g(0) and
    g(s) >= _C2 g(0); else the sufficient-decrease step of least value it
    tried; else 0.0, no step.  So a step returned was tried, and its value
    is finite and no more than f(0).
    """
    g0 = float(g(0.0))
    if not g0 < 0.0:
        raise ValueError(f"slope at zero must be negative, got {g0}")
    f0 = float(f(0.0))
    s, lo, hi = _FIRST_STEP, 0.0, float("inf")
    best_s, best_f = 0.0, float("inf")
    for _ in range(_MAX_TRIALS):
        fs = float(f(s))
        if math.isfinite(fs) and fs <= f0 + _C1 * s * g0:
            if fs < best_f:
                best_s, best_f = s, fs
            if float(g(s)) >= _C2 * g0:
                return s
            lo = s
        else:
            hi = s
        s = 0.5 * (lo + hi) if math.isfinite(hi) else 2.0 * s
    return best_s


def default_start(spec: ProblemSpec) -> np.ndarray:
    """z = (x_m, u, t) with x_m = 0, u = (0.1 / sqrt(l)) e, t = ||u||."""
    l = spec.dims.l
    u = np.full(l, 0.1 / np.sqrt(l))
    return np.concatenate([np.zeros(spec.dims.k), u, [np.linalg.norm(u)]])


class _PointEval:
    # one exact point of the inner loop: its value, and its gradient once
    # asked for; its per-draw data are in the stage's buffers while it is
    # held there; var is the empirical VaR of a cvar point with finite losses
    __slots__ = ("z", "theta", "value", "var", "_gvec")

    def __init__(self, z, theta, value, var=None):
        self.z = z
        self.theta = theta
        self.value = value
        self.var = var
        self._gvec = None


class _StageProblem:
    """Mode-specific reduced objective over one stage's sample.

    In mode cvar the tail threshold is re-optimized at every point the line
    search may accept, so it runs on the reduced function
    min_Theta Nhat(z, Theta); its gradient is the spatial gradient at the
    minimizing Theta.  Modes ev and erm average the merit directly.  A
    point whose losses are not all finite has the value inf in every mode.
    search runs one line search, and rejects most of its trials on lower
    bounds of their value (its docstring gives the cascade); eval_point
    evaluates one point exactly, or, given a bar and a bound to try, returns
    that bound as a float when it exceeds the bar.  counts is the stage's
    record of its work (COUNTS), added to where each event happens.

    The per-draw arrays of one point, G1 and v, the residuals, the losses
    and, once grad or direction asks, the FB coefficients, live in (rows, N)
    buffers allocated once per stage.  _fill is the one routine that forms
    a point's G1, residuals and losses, over the whole sample or over the
    tail screen's draws; the kernels grad and direction call only read the
    buffers.  A screened trial fills them too, and leaves them holding no
    point.  They hold the point evaluated last; grad and direction asked
    about an older point (the line search's fallback to its best step)
    evaluate it again.
    """

    def __init__(self, ev: SampleEvaluator, cfg: SolverConfig, where: str = "the stage"):
        self.ev = ev
        self.cfg = cfg
        self.where = where  # what every error the stage raises begins with
        n = ev.N
        self._f = np.empty((ev.dim, n))
        self._res = np.empty((ev.dim, n))
        self._thetas = np.empty(n)
        self._fb = np.empty((2, ev.k, n))
        self._work = np.empty((ev.dim - 1, n))
        # what grad and direction pass the kernels at every point besides
        # the buffers: _LM_NU I, and the unit weights of modes ev and erm as a
        # stride-0 view of 1.0 (weighted_merit_grad's w @ res[m] then runs
        # numpy's own dot loop; contiguous ones would go to BLAS and round
        # differently)
        self._unit = np.broadcast_to(1.0, (n,))
        self._damping = _LM_NU * np.eye(ev.dim)
        self._held: _PointEval | None = None  # whose data _f, _res and _thetas hold
        self._fb_of: _PointEval | None = None  # whose FB coefficients _fb holds
        # which screens search tries: the tail draws' in mode cvar, the FB
        # rows' in modes erm and ev, where at N = 1 the ray bound is the
        # mean merit itself
        tail = n - _tail_rank(n, cfg.alpha)
        self._tail_on = cfg.mode == "cvar" and n >= _TAIL_MIN_N and 1 <= tail <= _TAIL_SHARE_MAX * n
        self._fb_on = cfg.mode != "cvar" and n > 1
        self.counts = dict.fromkeys(COUNTS, 0)

    def _fill(
        self, z: np.ndarray, W: np.ndarray | None = None, bar: float | None = None, floor: float | None = None
    ) -> np.ndarray | float:
        # G1 and v, the residuals and the losses at z, which are returned:
        # over the whole sample in the stage's buffers, or over the columns
        # of W in contiguous prefixes of them.  Given floor, the FB rows come
        # first, and half their mean square plus floor (search's step 2) is
        # returned in place of the losses when it exceeds bar
        ev = self.ev
        f, res, thetas = self._f, self._res, self._thetas
        if W is not None:
            n = W.shape[1]
            f, res = (b.reshape(-1)[: len(b) * n].reshape(len(b), n) for b in (f, res))
            thetas = thetas[:n]
        ev._g1_v(z, f, W)
        if floor is not None:
            self.counts["fb_passes"] += 1
            fb = ev._fb_rows(z, f, res)
            # the terms are squares, so vdot's rounding is a tiny share of
            # the sum, far inside the margin floor already takes off
            bound = 0.5 * float(np.vdot(fb, fb)) / ev.N + floor
            if bound > bar and math.isfinite(bound):
                self.counts["fb_answers"] += 1
                return bound
        self.counts["full_passes" if W is None else "tail_passes"] += 1
        return ev.thetas(z, ev.residuals(z, f, res, floor is not None), thetas)

    def _tail_draws(self, e: _PointEval) -> np.ndarray | None:
        # the columns of W of the draws whose losses at e exceed its VaR, at
        # most floor(alpha N) of them, where the stage screens on them
        if self._tail_on and e.var is not None:
            return self.ev.W[:, np.flatnonzero(self.losses(e) > e.var)]
        return None

    def _rejects(self, bound: float, bar: float) -> bool:
        cfg = self.cfg
        margin = _SCREEN_RTOL * (abs(bar) + abs(bound) + cfg.mu) / cfg.alpha
        return math.isfinite(bound) and bound > bar + margin

    def _tail_screen(self, z: np.ndarray, bar: float, W: np.ndarray) -> float | None:
        # the losses at z of the draws whose columns of W are given, summed
        # over alpha N, if that bound fails bar by the margin, else None
        bound = float(np.add.reduce(self._fill(z, W))) / (self.cfg.alpha * self.ev.N)
        return bound if self._rejects(bound, bar) else None

    def losses(self, e: _PointEval) -> np.ndarray:
        """The merit losses at e, in the stage's buffer."""
        if self._held is not e:
            self._fill(e.z)
            self._held = e
        return self._thetas

    def _fb_at(self, e: _PointEval) -> np.ndarray:
        self.losses(e)
        if self._fb_of is not e:
            self.ev._fb_coeffs(e.z, self._f, self._fb)
            self._fb_of = e
        return self._fb

    def eval_point(
        self, z: np.ndarray, bar: float | None = None, floor: float | None = None, tail_W: np.ndarray | None = None
    ) -> _PointEval | float:
        """The exact point at z or, given the bar, the first bound to try that exceeds it.

        floor asks for the FB-row bound (search's step 2), tail_W for the
        tail draws' (step 3); mode cvar tries the empirical CVaR (step 4).
        """
        z = _check_vector(z, "z", self.ev.dim)
        cfg = self.cfg
        self._held = None
        if tail_W is not None:
            bound = self._tail_screen(z, bar, tail_W)
            if bound is not None:
                self.counts["tail_answers"] += 1
                return bound
        thetas = self._fill(z, bar=bar, floor=floor)
        if isinstance(thetas, float):
            return thetas
        var = None
        if cfg.mode == "cvar":
            tail = _tail_quantile(thetas, cfg.alpha)
            if bar is not None:
                bound = _tail_cvar(thetas, cfg.alpha, tail)
                if self._rejects(bound, bar):
                    self.counts["cvar_answers"] += 1
                    return bound
            if np.isfinite(thetas).all():
                self.counts["theta_calls"] += 1
                theta = theta_star(thetas, cfg.alpha, cfg.mu, cfg.smoothing, tail)
                var = tail[0]
                del tail  # the partitioned copy of the losses, before smooth_plus's temporaries
                shifted = smooth_plus(thetas - theta, cfg.mu, cfg.smoothing)
                # np.add.reduce(x) / x.size is np.mean's sum and division, without its wrapper
                value = theta + float(np.add.reduce(shifted)) / shifted.size / cfg.alpha
            else:
                theta, value = float("nan"), float("inf")
        else:
            theta = float("nan")
            value = float(np.add.reduce(thetas)) / thetas.size
        self._held = _PointEval(z, theta, value, var=var)
        return self._held

    def search(self, cur: _PointEval, d: np.ndarray, slope: float) -> _PointEval:
        """The point of the step wolfe_search returns along d from cur, cur for no step; slope is grad(cur) @ d.

        Most trials exist only to be rejected.  Each value asked for has the
        bar f(0) + _C1 s g(0), from the floats wolfe_search forms, and the
        first of these lower bounds that exceeds it answers in its place:
          1. saa.RayBound's closed form for the mean merit, which every
             mode's value is at least, before any pass over the draws;
          2. erm and ev over N > 1 draws: half the FB rows' mean square plus
             RayBound.floor for the other rows, before those and the losses;
          3. cvar from N = _TAIL_MIN_N on, while floor(alpha N) is at most
             _TAIL_SHARE_MAX N: the losses of the draws whose losses at cur
             exceed its VaR, summed over alpha N, before a pass over the
             rest; the losses being >= 0, that is at most the empirical
             CVaR (Rockafellar & Uryasev 2000);
          4. cvar: the empirical CVaR, before theta_star; p_mu(t) >= [t]_+
             for every smoothing, so min_Theta Nhat is at least that CVaR.
             One selection of the losses gives it, theta_star's start and
             the VaR.
        Bounds answer only rejections, by a margin above their rounding,
        and only exact points are kept, so the steps are those of exact
        evaluation.  counts tallies the values asked for and the bound that answered each.
        """
        z, counts = cur.z, self.counts
        tail_W = self._tail_draws(cur)
        ray = RayBound(self.ev, z, d)
        cache: dict[float, _PointEval] = {0.0: cur}

        def value(s: float) -> float:
            e = cache.get(s)
            if e is not None:
                return e.value
            counts["trials"] += 1
            bar = cur.value + _C1 * s * slope
            low = ray.screen(s, bar)
            if low is not None:
                counts["ray_answers"] += 1
                return low
            floor = ray.floor(s, bar) if self._fb_on else None
            e = self.eval_point(z + s * d, bar, floor, tail_W)
            if isinstance(e, float):
                return e
            cache[s] = e
            return e.value

        # wolfe_search asks for the slope, and returns a step, only where the
        # value met the sufficient-decrease test, which no bound does: at
        # cur or at a point evaluated exactly, which the cache holds
        return cache[wolfe_search(value, lambda s: float(self.grad(cache[s]) @ d))]

    def grad(self, e: _PointEval) -> np.ndarray:
        if e._gvec is None:
            fb = self._fb_at(e)
            cfg = self.cfg
            if cfg.mode == "cvar":
                w = smooth_plus_deriv(self._thetas - e.theta, cfg.mu, cfg.smoothing)
                # theta_star makes the tail weights sum to alpha N; far off
                # it, Theta is not resolved at this mu and the gradient is
                # not that of the objective
                total, target = float(np.add.reduce(w)), cfg.alpha * self.ev.N
                if not 0.5 * target <= total <= 2.0 * target:
                    raise ValueError(
                        f"{self.where}: tail weights at Theta = {e.theta:g} sum to {total:g}, not alpha N = "
                        f"{target:g}: mu = {cfg.mu:g} is below theta_star's resolution of Theta, "
                        f"{_THETA_RTOL * (1.0 + abs(e.theta)):.3g}"
                    )
                e._gvec = self.ev.weighted_merit_grad(e.z, w, self._res, self._f, fb, self._work) / cfg.alpha
            else:
                e._gvec = self.ev.weighted_merit_grad(e.z, self._unit, self._res, self._f, fb, self._work)
        return e._gvec

    def direction(self, e: _PointEval, grad: np.ndarray) -> np.ndarray:
        fb = self._fb_at(e)
        try:
            a_bar, f_bar = self.ev.mean_jacobian_residual(e.z, self._res, self._f, fb)
            d = _lm_from_means(a_bar, f_bar, self._damping)
        except np.linalg.LinAlgError:
            return -grad
        nd = math.sqrt(float(d @ d))
        if nd == 0.0 or float(grad @ d) > -_DESCENT_R * nd:
            return -grad
        return d


def _overflow(moved: int, stage: _StageProblem, cur: _PointEval, theta: bool = False) -> ValueError:
    # the error that ends a stage at cur, the point the step of iteration
    # moved took it to (0: its start point): theta_star overflows on its
    # finite losses (theta: the Theta reported for it), or else its value is
    # not finite, which only a start point's can be, or else its gradient
    at = f"the step of iteration {moved}" if moved else "the start point"
    if theta or (cur.var is not None and not math.isfinite(cur.theta)):
        top = float(np.maximum.reduce(stage.losses(cur)))
        return ValueError(f"{stage.where}: theta_star overflows at {at}, where the largest loss is {top:g}")
    if math.isfinite(cur.value):
        return ValueError(f"{stage.where}: the merit's gradient overflows at {at}")
    return ValueError(f"{stage.where}: the merit overflows at {at}, objective {cur.value}")


def solve(spec: ProblemSpec, cfg: SolverConfig, start=None) -> list[StageResult]:
    """Run the staged solve and return each stage's result.

    Stages run over the sample schedule (a single mean-draw stage in mode
    ev) from start, a vector z = (x_m, u, t), or default_start, each
    warm-starting at the previous stage's solution.  The solve ends early
    when consecutive stage solutions are closer than eps, which is recorded
    as that stage's termination unless the stage stalled.
    """
    z = default_start(spec) if start is None else _check_vector(start, "start", spec.dims.m + 1).copy()
    results: list[StageResult] = []
    stage_count = 1 if cfg.mode == "ev" else len(cfg.schedule)
    for j in range(1, stage_count + 1):
        result = _run_stage(spec, cfg, j, z)
        results.append(result)
        if j > 1 and float(np.linalg.norm(result.point - z)) < cfg.eps:
            if result.termination != "stalled":
                result.termination = "outer_eps"
            break
        z = result.point
    return results


def _run_stage(spec: ProblemSpec, cfg: SolverConfig, j: int, z: np.ndarray) -> StageResult:
    # stage j from z.  Its evaluator, buffers and points are this frame's
    # alone, so they are freed when it returns, before the next stage draws.
    # Every error it raises begins with where, those of its draws included
    where = f"stage {j} (N = {1 if cfg.mode == 'ev' else cfg.schedule[j - 1]})"
    try:
        ev = SampleEvaluator(spec, stage_samples(spec, cfg, j))
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc
    stage = _StageProblem(ev, cfg, where)
    t0 = time.perf_counter()
    iters = moved = 0
    # a merit or gradient that overflows makes every later step nan, and
    # the trials that overflow are only rejected: the loop runs without
    # warnings.  Every step search returns has a finite value, so the
    # value is checked at the start point and the gradient at each point
    with np.errstate(over="ignore", invalid="ignore"):
        cur = stage.eval_point(z)
        if not math.isfinite(cur.value):
            raise _overflow(moved, stage, cur)
        while True:
            grad = stage.grad(cur)
            gnorm = float(np.maximum.reduce(np.abs(grad)))  # nan or inf where grad is
            if not math.isfinite(gnorm):
                raise _overflow(moved, stage, cur)
            if gnorm <= cfg.tol_r:
                termination = "grad_tol"
                break
            if iters >= cfg.k_max:
                termination = "k_max"
                break
            d = stage.direction(cur, grad)
            cur = stage.search(cur, d, float(grad @ d))
            iters += 1
            if (cur.z == z).all():
                # the search returned no step, or one that moved z by less
                # than one ulp, so every remaining iteration would replay
                # this one exactly
                termination = "stalled"
                break
            z, moved = cur.z, iters
        wall = time.perf_counter() - t0
        if cfg.mode != "cvar":
            # modes erm and ev report theta_star's Theta at the solution
            stage.counts["theta_calls"] += 1
            cur.theta = theta_star(stage.losses(cur), cfg.alpha, cfg.mu, cfg.smoothing)
        if not math.isfinite(cur.theta):
            raise _overflow(moved, stage, cur, theta=True)

    x, u = recover_lcp_point(spec.dims, z)
    # the last use of the stage's buffers: aloc forms F over the draws in _f
    f_mean, loss = ev.f_values(x, u, spec.mean_omega()), aloc(ev, x, u, stage._f)
    return StageResult(j, ev.N, z, cur.theta, x, u, f_mean, loss, gnorm, iters, termination, wall, stage.counts)


def aloc(ev: SampleEvaluator, x, u, out: np.ndarray | None = None) -> float:
    """Average absolute loss of complementarity over ev's sample: mean_j |<(x, u), F(x, u, w_j)>|.

    F is ev.f_values: one product over the draws the evaluator already
    holds, formed in out, a (k + l + 1, N) array it overwrites, or else in
    a fresh one; besides, aloc allocates the N inner products.  solve
    passes each stage's own evaluator and its finished _f buffer.
    """
    f = ev.f_values(x, u, out=out)
    vals = np.concatenate([x, u], dtype=float) @ f
    return float(np.mean(np.abs(vals, out=vals)))
