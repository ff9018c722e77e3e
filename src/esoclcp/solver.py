"""Staged sample-average solver for the reformulated problem.

Each stage draws a fresh, larger sample with a seed derived from the base
seed and the stage index, then runs a damped Gauss-Newton inner loop on the
stage objective: the direction solves (Abar^T Abar + nu I) d = -Abar^T Fbar
built from the sample-mean residual Jacobian and residual, falling back to
steepest descent whenever that system is unsolvable or insufficiently
downhill, and a weak Wolfe line search picks the step.  The tail threshold
Theta is re-optimized from scratch by saa.theta_star inside every objective
and gradient evaluation, with no state carried between trial points, so the
inner loop minimizes the reduced function min_Theta Nhat(z, Theta).  Stages
stop on a small gradient or an iteration cap; the schedule stops early when
consecutive stage solutions agree within eps.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .cone import ConePoint
from .problem import ProblemSpec, f_eval, realize_batch
from .reformulate import MixPoint, recover_lcp_point
from .risk import SmoothingKind, smooth_plus, smooth_plus_deriv
from .saa import SAAPoint, SampleEvaluator, SampleSet, draw_samples, theta_star

MODES = ("cvar", "ev", "erm")
TERMINATIONS = ("grad_tol", "k_max", "outer_eps")

DEFAULT_SCHEDULE = (10, 100, 1000, 10000)


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
    descent_r: float = 1e-8

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        # math.inf > 0, so each bound is checked for finiteness too
        for name in ("mu", "lm_nu", "tol_r", "eps", "descent_r"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
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
    """Outcome of one stage's inner loop."""

    j: int
    N: int
    point: SAAPoint
    grad_inf_norm: float
    inner_iters: int
    termination: str
    wall_time: float
    aloc: float  # average loss of complementarity over the stage's own sample


@dataclass(eq=False)
class SolveReport:
    """Everything the staged solve produced."""

    stages: list[StageResult] = field(default_factory=list)
    final_mix: SAAPoint | None = None
    recovered: ConePoint | None = None
    F_at_mean: np.ndarray | None = None
    aloc: float = float("nan")
    theta_threshold: float = float("nan")
    mode: str = "cvar"


def stage_seed(seed: int, j: int) -> int:
    """Derived seed for stage j; a pure function of (seed, j)."""
    ss = np.random.SeedSequence(entropy=(int(seed), int(j)))
    return int(ss.generate_state(1, np.uint64)[0])


def stage_samples(spec: ProblemSpec, cfg: SolverConfig, j: int) -> SampleSet:
    """The sample a given stage solves over; mode ev uses the single mean draw."""
    if cfg.mode == "ev":
        return SampleSet(spec.mean_omega()[None, :], stage_seed(cfg.seed, j), 1)
    if not 1 <= j <= len(cfg.schedule):
        raise ValueError(f"stage index {j} outside schedule of length {len(cfg.schedule)}")
    return draw_samples(spec.distribution, spec.omega_dim, cfg.schedule[j - 1], stage_seed(cfg.seed, j))


def _lm_from_means(a_bar: np.ndarray, f_bar: np.ndarray, lm_nu: float) -> np.ndarray:
    # damped Gauss-Newton direction from the sample-mean Jacobian and residual;
    # non-finite means are refused before the products, which would warn
    if not (np.isfinite(a_bar).all() and np.isfinite(f_bar).all()):
        raise np.linalg.LinAlgError("mean Jacobian or residual is not finite")
    gram = a_bar.T @ a_bar + lm_nu * np.eye(a_bar.shape[1])
    rhs = -(a_bar.T @ f_bar)
    # the Cholesky factorization is the SPD test; numpy has no triangular
    # solve, and one LU solve of the small system costs less than two.
    # Overflow in the products can pass numpy's Cholesky; the step check ends it.
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(f"damped normal equations not SPD: {exc}") from exc
    d = np.linalg.solve(gram, rhs)
    if not np.all(np.isfinite(d)):
        raise np.linalg.LinAlgError("damped normal equations produced non-finite step")
    return d


def wolfe_search(f, g, c1: float = 1e-4, c2: float = 0.9, s_init: float = 1.0, max_evals: int = 60) -> float:
    """Weak Wolfe line search by bracketing bisection.

    f maps a step length to the objective value along the ray, g to its
    directional derivative.  Accepts the first step with
    f(s) <= f(0) + c1 s g(0) and g(s) >= c2 g(0).  The slope at zero must be
    negative.  After max_evals trial steps the best sufficient-decrease step
    seen is returned (pure backtracking fallback); if none was seen, the
    last, tiny bisected step is returned.
    """
    if not 0.0 < c1 < c2 < 1.0:
        raise ValueError(f"need 0 < c1 < c2 < 1, got c1={c1}, c2={c2}")
    if not s_init > 0:
        raise ValueError(f"s_init must be > 0, got {s_init}")
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
    # one point of the inner loop: its value, and its gradient once asked for;
    # its per-draw data are in the stage's buffers while it is held there
    __slots__ = ("z", "p", "theta", "value", "_gvec")

    def __init__(self, z, p, theta, value):
        self.z = z
        self.p = p
        self.theta = theta
        self.value = value
        self._gvec = None


class _StageProblem:
    """Mode-specific reduced objective over one stage's sample.

    In mode cvar the tail threshold is re-optimized inside every objective
    and gradient evaluation, so the line search runs on the reduced function
    min_Theta Nhat(z, Theta); its gradient is the spatial gradient at the
    minimizing Theta.  Modes ev and erm average the merit directly.

    The per-draw arrays of one point, G1 and v, the residuals, the losses
    and, once grad or direction asks, the FB coefficients, live in (rows, N)
    buffers allocated once per stage and filled in place.  They hold the
    point evaluated last; grad and direction asked about an older point (the
    line search's fallback to its best step) evaluate it again.
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
        self._held: _PointEval | None = None  # whose data _f, _res and _thetas hold
        self._fb_of: _PointEval | None = None  # whose FB coefficients _fb holds

    def _fill(self, p: MixPoint) -> np.ndarray:
        self.ev._g1_v(p, self._f)
        res = self.ev.residuals(p, self._f, self._res)
        return self.ev.thetas(p, res, self._thetas)

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

    def eval_point(self, z: np.ndarray) -> _PointEval:
        p = MixPoint.from_vector(z, self.k, self.l)
        thetas = self._fill(p)
        if self.cfg.mode == "cvar":
            theta = theta_star(thetas, self.cfg.alpha, self.cfg.mu, self.cfg.smoothing)
            shifted = smooth_plus(thetas - theta, self.cfg.mu, self.cfg.smoothing)
            # x.sum() / x.size is np.mean's sum and division, without its wrapper
            value = theta + float(shifted.sum()) / shifted.size / self.cfg.alpha
        else:
            theta = float("nan")
            value = float(thetas.sum()) / thetas.size
        self._held = _PointEval(z, p, theta, value)
        return self._held

    def grad(self, e: _PointEval) -> np.ndarray:
        if e._gvec is None:
            fb = self._fb_at(e)
            if self.cfg.mode == "cvar":
                w = smooth_plus_deriv(self._thetas - e.theta, self.cfg.mu, self.cfg.smoothing)
                e._gvec = self.ev.weighted_merit_grad(e.p, w, self._res.T, self._f, fb, self._work) / self.cfg.alpha
            else:
                e._gvec = self.ev.weighted_merit_grad(e.p, 1.0, self._res.T, self._f, fb, self._work)
        return e._gvec

    def direction(self, e: _PointEval, grad: np.ndarray) -> np.ndarray:
        fb = self._fb_at(e)
        try:
            a_bar, f_bar = self.ev.mean_jacobian_residual(e.p, self._res.T, self._f, fb)
            d = _lm_from_means(a_bar, f_bar, self.cfg.lm_nu)
        except np.linalg.LinAlgError:
            return -grad
        nd = float(np.linalg.norm(d))
        if nd == 0.0 or float(grad @ d) > -self.cfg.descent_r * nd:
            return -grad
        return d


def solve(spec: ProblemSpec, cfg: SolverConfig, start: SAAPoint | None = None) -> SolveReport:
    """Run the staged solve and assemble the report.

    Stages run over the sample schedule (a single mean-draw stage in mode
    ev), warm-starting each stage at the previous stage's solution.  The
    solve ends early when consecutive stage solutions are closer than eps,
    which is recorded as that stage's termination.
    """
    if start is None:
        z = default_start(spec).as_vector()
    else:
        if start.p.x_m.shape != (spec.dims.k,) or start.p.u.shape != (spec.dims.l,):
            raise ValueError("start point does not match the problem dimensions")
        z = start.p.as_vector()

    report = SolveReport(mode=cfg.mode)
    stage_count = 1 if cfg.mode == "ev" else len(cfg.schedule)
    prev_z: np.ndarray | None = None

    for j in range(1, stage_count + 1):
        samples = stage_samples(spec, cfg, j)
        ev = SampleEvaluator(spec, samples.draws)
        stage = _StageProblem(ev, cfg)
        t0 = time.perf_counter()
        iters = 0
        termination = "k_max"
        cur = stage.eval_point(z)
        while True:
            grad = stage.grad(cur)
            gnorm = float(np.max(np.abs(grad)))
            if gnorm <= cfg.tol_r:
                termination = "grad_tol"
                break
            if iters >= cfg.k_max:
                termination = "k_max"
                break
            d = stage.direction(cur, grad)
            cache: dict[float, _PointEval] = {0.0: cur}

            def trial(s: float, z=z, d=d, cache=cache) -> _PointEval:
                e = cache.get(s)
                if e is None:
                    e = stage.eval_point(z + s * d)
                    cache[s] = e
                return e

            step = wolfe_search(
                lambda s: trial(s).value,
                lambda s, d=d: float(stage.grad(trial(s)) @ d),
                cfg.c1,
                cfg.c2,
            )
            nxt = trial(step)
            iters += 1
            if np.array_equal(nxt.z, z):
                # the accepted step moved z by less than one ulp, so every
                # remaining iteration would replay this one exactly; charge
                # them all at once without rerunning the identical search
                iters = cfg.k_max
                cur = nxt
                break
            cur = nxt
            z = cur.z
        wall = time.perf_counter() - t0

        if cfg.mode == "cvar":
            theta = cur.theta
        else:
            theta = float(theta_star(stage.losses(cur), cfg.alpha, cfg.mu, cfg.smoothing))
        point = SAAPoint(MixPoint.from_vector(z, spec.dims.k, spec.dims.l), theta)
        pt = recover_lcp_point(point.p)
        stage_aloc = aloc(spec, samples, pt.x, pt.u)
        result = StageResult(j, samples.N, point, gnorm, iters, termination, wall, stage_aloc)
        report.stages.append(result)

        if prev_z is not None and float(np.linalg.norm(z - prev_z)) < cfg.eps:
            result.termination = "outer_eps"
            prev_z = z
            break
        prev_z = z

    final_stage = report.stages[-1]
    report.final_mix = final_stage.point
    report.recovered = recover_lcp_point(final_stage.point.p)
    report.F_at_mean = f_eval(spec, spec.mean_omega(), report.recovered.x, report.recovered.u)
    report.aloc = final_stage.aloc
    report.theta_threshold = final_stage.point.Theta
    return report


def aloc(spec: ProblemSpec, s: SampleSet, x, u) -> float:
    """Average absolute loss of complementarity: mean_j |<(x, u), F(x, u, w_j)>|."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if x.shape != (spec.dims.k,) or u.shape != (spec.dims.l,):
        raise ValueError("point does not match the problem dimensions")
    t_all, r_all = realize_batch(spec, s.draws)
    w = np.concatenate([x, u])
    vals = np.einsum("nij,j->ni", t_all, w) + r_all
    return float(np.mean(np.abs(vals @ w)))
