"""Staged sample-average solver for the reformulated problem.

Each stage draws a fresh, larger sample with a seed derived from the base
seed and the stage index, then runs a damped Gauss-Newton inner loop on the
stage objective: the direction solves (Abar^T Abar + nu I) d = -Abar^T Fbar
built from the sample-mean residual Jacobian and residual, falling back to
steepest descent whenever that system is unsolvable or insufficiently
downhill, and a weak Wolfe line search picks the step.  The tail threshold
Theta is re-optimized from scratch by saa.theta_star at every point the line
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

from .problem import ProblemSpec, realize_batch  # realize_batch: unused, perfbench/spans.py traces it
from .reformulate import MixPoint, recover_lcp_point
from .risk import SmoothingKind, _tail_cvar, _tail_quantile, _tail_rank, smooth_plus, smooth_plus_deriv
from .saa import RayBound, SampleEvaluator, draw_samples, theta_star

MODES = ("cvar", "ev", "erm")

DEFAULT_SCHEDULE = (10, 100, 1000, 10000)

# the largest smoothing parameter accepted: CHKS and auto-scaling IP square
# mu, and theta_star brackets a Theta about mu / sqrt(alpha) above the losses,
# whose square overflows from mu ~ 1e153 on
MU_MAX = 1e100
# the smallest: theta_star's h' sums 2 mu^2 / r^3, r >= 2 mu, which overflows
# where a loss sits at Theta from mu ~ 1e-103 on, and 4 mu^2 underflows to 0
# from mu ~ 1e-162 on, where p'(0) becomes 0 / 0.  Well above that, a mu
# below theta_star's tolerance on Theta still leaves the tail weights a step
# whose sum misses alpha N; grad refuses those
MU_MIN = 1e-100

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

# the Gauss-Newton direction d is kept only when g^T d <= -_DESCENT_R ||d||;
# otherwise the stage steps along -g
_DESCENT_R = 1e-8


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the staged solve; every field has a working default."""

    alpha: float = 0.05
    mu: float = 1e-4
    lm_nu: float = 1e-6
    schedule: tuple[int, ...] = DEFAULT_SCHEDULE
    seed: int = 42
    tol_r: float = 1e-6
    eps: float = 1e-6
    c1: float = 1e-4
    c2: float = 0.9
    k_max: int = 500
    mode: str = "cvar"
    smoothing: SmoothingKind = SmoothingKind.CHKS

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        # math.inf > 0, so each bound is checked for finiteness too
        for name in ("mu", "lm_nu", "tol_r", "eps"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if self.mu > MU_MAX:
            raise ValueError(f"mu must be at most {MU_MAX:g}, got {self.mu:g}")
        if self.mu < MU_MIN:
            raise ValueError(f"mu must be at least {MU_MIN:g}, got {self.mu:g}")
        if not all(isinstance(n, (int, np.integer)) and not isinstance(n, bool) for n in self.schedule):
            raise ValueError(f"schedule entries must be integers, got {self.schedule!r}")
        schedule = tuple(int(n) for n in self.schedule)
        if len(schedule) < 1 or schedule[0] < 1 or any(
            b <= a for a, b in zip(schedule, schedule[1:])
        ):
            raise ValueError(f"schedule must be strictly increasing positive ints, got {self.schedule}")
        object.__setattr__(self, "schedule", schedule)
        if not (isinstance(self.seed, (int, np.integer)) and 0 <= int(self.seed) < 2**64):
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")
        object.__setattr__(self, "seed", int(self.seed))
        if not 0.0 < self.c1 < self.c2 < 1.0:
            raise ValueError(f"need 0 < c1 < c2 < 1, got c1={self.c1}, c2={self.c2}")
        if not (isinstance(self.k_max, (int, np.integer)) and self.k_max >= 1):
            raise ValueError(f"k_max must be an integer >= 1, got {self.k_max!r}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        object.__setattr__(self, "smoothing", SmoothingKind(self.smoothing))


@dataclass(eq=False)
class StageResult:
    """Outcome of one stage: its solution, in both coordinate systems, and how the inner loop ended."""

    j: int
    N: int
    point: MixPoint  # the stage's solution (x_m, u, t)
    theta: float  # the tail threshold Theta at point
    x: np.ndarray  # point recovered to the cone variables (x, u)
    u: np.ndarray
    F_at_mean: np.ndarray  # F(x, u) at the mean draw
    aloc: float  # average loss of complementarity over the stage's own sample
    grad_inf_norm: float
    inner_iters: int
    termination: str
    wall_time: float
    trials: int = 0  # line-search values asked for, cache hits aside
    screened: int = 0  # of those, the ones a lower bound answered


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
    # with damping = lm_nu I (a stage builds it once); non-finite means are
    # refused before the products, which would warn
    if not (np.isfinite(a_bar).all() and np.isfinite(f_bar).all()):
        raise np.linalg.LinAlgError("mean Jacobian or residual is not finite")
    # lm_nu > 0 makes the gram SPD wherever it is finite, so one LU solve
    # needs no SPD test; overflow in the products ends in the step check
    d = np.linalg.solve(a_bar.T @ a_bar + damping, -(a_bar.T @ f_bar))
    if not np.isfinite(d).all():
        raise np.linalg.LinAlgError("damped normal equations produced non-finite step")
    return d


def wolfe_search(f, g, c1: float = 1e-4, c2: float = 0.9, s_init: float = 1.0, max_evals: int = 60) -> float:
    """Weak Wolfe line search by bracketing bisection.

    f maps a step length to the objective value along the ray, g to its
    directional derivative.  Accepts the first step with
    f(s) <= f(0) + c1 s g(0) and g(s) >= c2 g(0).  The slope at zero must be
    negative.  After max_evals trial steps the best sufficient-decrease step
    seen is returned (pure backtracking fallback); if none was seen, the
    last, tiny bisected step is returned.  s_init must be finite and
    positive, max_evals an integer of at least 1.
    """
    if not 0.0 < c1 < c2 < 1.0:
        raise ValueError(f"need 0 < c1 < c2 < 1, got c1={c1}, c2={c2}")
    if not (math.isfinite(s_init) and s_init > 0):
        raise ValueError(f"s_init must be finite and > 0, got {s_init}")
    if not (isinstance(max_evals, (int, np.integer)) and max_evals >= 1):
        raise ValueError(f"max_evals must be an integer >= 1, got {max_evals!r}")
    g0 = float(g(0.0))
    if not g0 < 0.0:
        raise ValueError(f"slope at zero must be negative, got {g0}")
    f0 = float(f(0.0))
    lo, hi = 0.0, float("inf")
    s = float(s_init)
    best_s = None
    best_f = float("inf")
    for _ in range(max_evals):
        fs = float(f(s))
        if math.isfinite(fs) and fs <= f0 + c1 * s * g0:
            if fs < best_f:
                best_s, best_f = s, fs
            gs = float(g(s))
            if gs >= c2 * g0:
                return s
            lo = s
        else:
            hi = s
        s = 0.5 * (lo + hi) if math.isfinite(hi) else 2.0 * s
    return best_s if best_s is not None else s


def default_start(spec: ProblemSpec) -> MixPoint:
    """x_m = 0, u = (0.1 / sqrt(l)) e, t = ||u||."""
    l = spec.dims.l
    u = np.full(l, 0.1 / np.sqrt(l))
    return MixPoint(np.zeros(spec.dims.k), u, float(np.linalg.norm(u)))


class _PointEval:
    # one exact point of the inner loop: its value, and its gradient once
    # asked for; its per-draw data are in the stage's buffers while it is
    # held there; var is the empirical VaR of a cvar point with finite losses
    __slots__ = ("z", "p", "theta", "value", "var", "_gvec")

    def __init__(self, z, p, theta, value, var=None):
        self.z = z
        self.p = p
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
    that bound as a float when it exceeds the bar.

    The per-draw arrays of one point, G1 and v, the residuals, the losses
    and, once grad or direction asks, the FB coefficients, live in (rows, N)
    buffers allocated once per stage and filled in place; a screened trial
    fills them too, and leaves them holding no point.  They hold the point
    evaluated last; grad and direction asked about an older point (the line
    search's fallback to its best step) evaluate it again.
    """

    def __init__(self, ev: SampleEvaluator, cfg: SolverConfig):
        self.ev = ev
        self.cfg = cfg
        self.k = ev.k
        self.l = ev.l
        n = ev.N
        self._f = np.empty((ev.dim, n))
        self._res = np.empty((ev.dim, n))
        self._thetas = np.empty(n)
        self._fb = np.empty((2, ev.k, n))
        self._work = np.empty((ev.dim - 1, n))
        # what grad and direction pass the kernels at every point: the
        # residuals as (N, rows), lm_nu I, and the unit weights of modes ev
        # and erm as the stride-0 view weighted_merit_grad makes of 1.0 (its
        # w @ r[m] then runs numpy's own dot loop; contiguous ones would go to
        # BLAS and round differently)
        self._res_T = self._res.T
        self._unit = np.broadcast_to(1.0, (n,))
        self._damping = cfg.lm_nu * np.eye(ev.dim)
        self._held: _PointEval | None = None  # whose data _f, _res and _thetas hold
        self._fb_of: _PointEval | None = None  # whose FB coefficients _fb holds
        # which screens search tries: the tail draws' in mode cvar, the FB
        # rows' in modes erm and ev, where at N = 1 the ray bound is the
        # mean merit itself
        tail = n - _tail_rank(n, cfg.alpha)
        self._tail_on = cfg.mode == "cvar" and n >= _TAIL_MIN_N and 1 <= tail <= _TAIL_SHARE_MAX * n
        self._fb_on = cfg.mode != "cvar" and n > 1
        # line-search values asked for, cache hits aside, and how many of
        # them a lower bound answered
        self.trials = 0
        self.screened = 0

    def _fill(self, p: MixPoint, head_only: bool = False) -> np.ndarray:
        # head_only: G1, v and the FB rows at p are in the buffers already
        if not head_only:
            self.ev._g1_v(p, self._f)
        res = self.ev.residuals(p, self._f, self._res, head_only)
        return self.ev.thetas(p, res, self._thetas)

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

    def _tail_screen(self, p: MixPoint, bar: float, W: np.ndarray) -> float | None:
        # the losses at p of the draws whose columns of W are given, summed
        # over alpha N, if that bound fails bar by the margin, else None;
        # the residuals and losses are those of the one evaluation path, in
        # contiguous prefixes of the stage's buffers
        ev, n = self.ev, W.shape[1]
        f, res = (b.reshape(-1)[: ev.dim * n].reshape(ev.dim, n) for b in (self._f, self._res))
        ev._g1_v(p, f, W)
        res = ev.residuals(p, f, res)
        bound = float(np.add.reduce(ev.thetas(p, res, self._thetas[:n]))) / (self.cfg.alpha * ev.N)
        return bound if self._rejects(bound, bar) else None

    def losses(self, e: _PointEval) -> np.ndarray:
        """The merit losses at e, in the stage's buffer."""
        if self._held is not e:
            self._fill(e.p)
            self._held = e
        return self._thetas

    def _fb_at(self, e: _PointEval) -> np.ndarray:
        self.losses(e)
        if self._fb_of is not e:
            self.ev._fb_coeffs(e.p, self._f, self._fb)
            self._fb_of = e
        return self._fb

    def eval_point(
        self, z: np.ndarray, bar: float | None = None, floor: float | None = None, tail_W: np.ndarray | None = None
    ) -> _PointEval | float:
        """The exact point at z or, given the bar, the first bound to try that exceeds it.

        floor asks for the FB-row bound (search's step 2), tail_W for the
        tail draws' (step 3); mode cvar tries the empirical CVaR (step 4).
        """
        p = MixPoint.from_vector(z, self.k, self.l)
        cfg = self.cfg
        self._held = None
        if tail_W is not None:
            bound = self._tail_screen(p, bar, tail_W)
            if bound is not None:
                return bound
        head_only = floor is not None
        if head_only:
            ev = self.ev
            ev._g1_v(p, self._f)
            fb = ev._fb_rows(p, self._f, self._res)
            # the terms are squares, so vdot's rounding is a tiny share of
            # the sum, far inside the margin floor already takes off
            bound = 0.5 * float(np.vdot(fb, fb)) / ev.N + floor
            if bound > bar and math.isfinite(bound):
                return bound
        thetas = self._fill(p, head_only)
        var = None
        if cfg.mode == "cvar":
            tail = _tail_quantile(thetas, cfg.alpha)
            if bar is not None:
                bound = _tail_cvar(thetas, cfg.alpha, tail)
                if self._rejects(bound, bar):
                    return bound
            if np.isfinite(thetas).all():
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
        self._held = _PointEval(z, p, theta, value, var=var)
        return self._held

    def search(self, cur: _PointEval, d: np.ndarray, slope: float) -> _PointEval:
        """The point wolfe_search accepts along d from cur; slope is grad(cur) @ d.

        Most trials exist only to be rejected.  Each value asked for has the
        bar f(0) + c1 s g(0), from the floats wolfe_search forms, and the
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
        evaluation.  trials counts the values asked for, screened those a bound answered.
        """
        z, cfg = cur.z, self.cfg
        tail_W = self._tail_draws(cur)
        ray = RayBound(self.ev, z, d)
        cache: dict[float, _PointEval] = {0.0: cur}

        def point(s: float) -> _PointEval:
            e = cache.get(s)
            if e is None:
                e = cache[s] = self.eval_point(z + s * d)
            return e

        def value(s: float) -> float:
            e = cache.get(s)
            if e is not None:
                return e.value
            self.trials += 1
            bar = cur.value + cfg.c1 * s * slope
            low = ray.screen(s, bar)
            if low is None:
                floor = ray.floor(s, bar) if self._fb_on else None
                e = self.eval_point(z + s * d, bar, floor, tail_W)
                if not isinstance(e, float):
                    cache[s] = e
                    return e.value
                low = e
            self.screened += 1
            return low

        return point(wolfe_search(value, lambda s: float(self.grad(point(s)) @ d), cfg.c1, cfg.c2))

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
                        f"tail weights at Theta = {e.theta:g} sum to {total:g}, not alpha N = {target:g}: "
                        f"mu = {cfg.mu:g} is too small for theta_star to resolve Theta"
                    )
                e._gvec = self.ev.weighted_merit_grad(e.p, w, self._res_T, self._f, fb, self._work) / cfg.alpha
            else:
                e._gvec = self.ev.weighted_merit_grad(e.p, self._unit, self._res_T, self._f, fb, self._work)
        return e._gvec

    def direction(self, e: _PointEval, grad: np.ndarray) -> np.ndarray:
        fb = self._fb_at(e)
        try:
            a_bar, f_bar = self.ev.mean_jacobian_residual(e.p, self._res_T, self._f, fb)
            d = _lm_from_means(a_bar, f_bar, self._damping)
        except np.linalg.LinAlgError:
            return -grad
        nd = math.sqrt(float(d @ d))
        if nd == 0.0 or float(grad @ d) > -_DESCENT_R * nd:
            return -grad
        return d


def solve(spec: ProblemSpec, cfg: SolverConfig, start: MixPoint | None = None) -> list[StageResult]:
    """Run the staged solve and return each stage's result.

    Stages run over the sample schedule (a single mean-draw stage in mode
    ev), warm-starting each stage at the previous stage's solution.  The
    solve ends early when consecutive stage solutions are closer than eps,
    which is recorded as that stage's termination.
    """
    if start is None:
        z = default_start(spec).as_vector()
    else:
        if start.x_m.shape != (spec.dims.k,) or start.u.shape != (spec.dims.l,):
            raise ValueError("start point does not match the problem dimensions")
        z = start.as_vector()

    results: list[StageResult] = []
    stage_count = 1 if cfg.mode == "ev" else len(cfg.schedule)
    mean_omega = spec.mean_omega()
    prev_z: np.ndarray | None = None

    for j in range(1, stage_count + 1):
        ev = SampleEvaluator(spec, stage_samples(spec, cfg, j))
        stage = _StageProblem(ev, cfg)
        t0 = time.perf_counter()
        iters = 0
        termination = "k_max"
        cur = stage.eval_point(z)
        while True:
            grad = stage.grad(cur)
            gnorm = float(np.maximum.reduce(np.abs(grad)))
            if gnorm <= cfg.tol_r:
                termination = "grad_tol"
                break
            if iters >= cfg.k_max:
                termination = "k_max"
                break
            d = stage.direction(cur, grad)
            nxt = stage.search(cur, d, float(grad @ d))
            iters += 1
            if (nxt.z == z).all():
                # the accepted step moved z by less than one ulp, so every
                # remaining iteration would replay this one exactly
                termination = "stalled"
                cur = nxt
                break
            cur = nxt
            z = cur.z
        wall = time.perf_counter() - t0

        if cfg.mode == "cvar":
            theta = float(cur.theta)
        else:
            theta = float(theta_star(stage.losses(cur), cfg.alpha, cfg.mu, cfg.smoothing))
        if not math.isfinite(theta):
            raise ValueError("Theta must be finite")
        point = MixPoint.from_vector(z, spec.dims.k, spec.dims.l)
        pt = recover_lcp_point(point)
        f_mean, loss = ev.f_values(pt.x, pt.u, mean_omega), aloc(ev, pt.x, pt.u)
        result = StageResult(
            j, ev.N, point, theta, pt.x, pt.u, f_mean, loss, gnorm, iters, termination, wall,
            stage.trials, stage.screened
        )
        results.append(result)

        if prev_z is not None and float(np.linalg.norm(z - prev_z)) < cfg.eps:
            result.termination = "outer_eps"
            break
        prev_z = z

    return results


def aloc(ev: SampleEvaluator, x, u) -> float:
    """Average absolute loss of complementarity over ev's sample: mean_j |<(x, u), F(x, u, w_j)>|.

    F is ev.f_values: one product over the draws the evaluator already
    holds, in O(N (m + omega_dim)) memory.  solve passes each stage's own
    evaluator.
    """
    f = ev.f_values(x, u)
    vals = np.concatenate([x, u], dtype=float) @ f
    return float(np.mean(np.abs(vals, out=vals)))
