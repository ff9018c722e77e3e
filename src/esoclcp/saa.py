"""Sample average approximation of the smoothed tail objective.

Sampling contract: draws come from the counter-based Philox generator keyed
by the seed as 53-bit integers h, mapped to uniforms u = (h + 0.5) / 2^53,
then to normals by the inverse CDF (ndtri, a port of Cephes') and scaled by
the distribution's mean and standard deviation.  For h < 2^52, h + 0.5 is
exact and u lies strictly inside (0, 1); for h >= 2^52 it rounds to an even
integer, so h = 2^53 - 1 gives u = 1.0 and an infinite draw, which the
evaluator rejects.  That happens with probability 2^-53 per draw, and is
kept so as not to change the stream.  The stream is a pure function of
(seed, N, omega_dim), so equal seeds reproduce draws bit-for-bit on one
numpy build and CPU, and the whole pipeline downstream of them on one numpy
build, CPU and BLAS thread count (BLAS may split its products over the draws
by thread).

SampleEvaluator never realizes the matrices T(w_j) for its kernels.  It keeps
the draws, (1, w_j) as a (omega_dim + 1, N) array, and one small operator
holding T and r's base values and perturbation coefficients, so each
objective evaluation is two small products plus one product over the draws,
and elementwise passes over contiguous length-N rows.  Its kernels fill
caller-owned (rows, N) arrays when given them; the solver's stages allocate
those once.
"""

from __future__ import annotations

import math

import numpy as np

from .cone import _check_count, _check_point, _check_vector, _is_int
from .problem import DistributionSpec, ProblemSpec, _check_omegas, realize_batch
from .risk import smooth_plus, smooth_plus_deriv  # unused here; perfbench/spans.py traces both names in this module

_MAX_SEED = 2**64 - 1
_TINY = np.finfo(float).tiny
# RayBound screens a trial out only when its bound exceeds the line search's
# bar by this share of |bar| plus its rounding scale S: at k + l = 16,
# omega_dim = 8 rounding is below about 1e-13 S, and on the benchmark's
# instances the bound and the exact merit at N = 1 differed by 4e-19 S at most
_RAY_RTOL = 1e-11

# Cephes ndtri: rational approximations of the normal quantile in
# y - 1/2 for exp(-2) < y <= 1 - exp(-2), and in z = 1 / sqrt(-2 log y) for
# the tails, with one set for 2 < 1/z < 8 and one for 1/z >= 8.  Horner's
# order, highest power first; the Q sets omit their leading 1.
_EXP_M2 = 0.13533528323661269189
_S2PI = 2.50662827463100050242
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _horner(x: np.ndarray, coef, monic: bool) -> np.ndarray:
    # polevl (monic=False) or p1evl (monic=True, leading coefficient 1) at x
    acc = x + coef[0] if monic else np.full_like(x, coef[0])
    for c in coef[1:]:
        acc *= x
        acc += c
    return acc


def _ratio(x: np.ndarray, P, Q) -> np.ndarray:
    # x P(x) / Q(x), evaluated left to right as Cephes does
    r = _horner(x, P, False)
    r *= x
    r /= _horner(x, Q, True)
    return r


def ndtri(y) -> np.ndarray:
    """Inverse of the standard normal CDF, elementwise; a port of Cephes ndtri.

    Same coefficients, branch points (exp(-2) and 1/z = 8) and operation
    order as Cephes (and scipy.special.ndtri), so the central branch
    exp(-2) < y <= 1 - exp(-2) gives the same bits; in the tails numpy's log
    may differ from the C library's in the last bit.  Returns -inf at 0,
    +inf at 1 and nan outside [0, 1], without floating-point warnings.
    """
    y = np.asarray(y, dtype=float)
    flat = y.ravel()
    out = np.full(flat.shape, np.nan)
    out[flat == 0.0] = -np.inf
    out[flat == 1.0] = np.inf

    # each branch gathers its own elements by index, computes on them in
    # place and scatters them back
    mid = np.flatnonzero((flat > _EXP_M2) & (flat <= 1.0 - _EXP_M2))
    c = flat[mid]
    c -= 0.5
    r = _ratio(c * c, _P0, _Q0)
    r *= c
    r += c
    r *= _S2PI
    out[mid] = r

    tail = np.flatnonzero(((flat > 0.0) & (flat <= _EXP_M2)) | ((flat > 1.0 - _EXP_M2) & (flat < 1.0)))
    v = flat[tail]
    x = 1.0 - v
    np.minimum(v, x, out=x)  # y, or 1 - y in the upper tail
    np.log(x, out=x)
    x *= -2.0
    np.sqrt(x, out=x)  # x = sqrt(-2 log y)
    x0 = np.log(x)
    x0 /= x
    np.subtract(x, x0, out=x0)  # x0 = x - log(x) / x
    z = 1.0 / x
    for sel, P, Q in ((x < 8.0, _P1, _Q1), (x >= 8.0, _P2, _Q2)):
        i = np.flatnonzero(sel)
        x0[i] -= _ratio(z[i], P, Q)
    v -= 0.5
    out[tail] = np.copysign(x0, v, out=x0)  # negative in the lower tail
    return out.reshape(y.shape)


def _check_seed(seed, name: str = "seed") -> int:
    # seed as a Python int, where it is one Philox takes as its key
    if not (_is_int(seed) and 0 <= int(seed) <= _MAX_SEED):
        raise ValueError(f"{name} must be an unsigned 64-bit integer, got {seed!r}")
    return int(seed)


def draw_samples(dist: DistributionSpec, omega_dim: int, N: int, seed: int) -> np.ndarray:
    """Draw an (N, omega_dim) array of iid normals; deterministic in the seed.

    It allocates the array it returns, the uniforms (N omega_dim floats)
    and ndtri's temporaries.  The generator's integers are freed as they
    are converted to floats, and the mean and standard deviation are
    applied in place: x *= std; x += mean rounds as mean + std x does.
    """
    N, omega_dim = _check_count(N, "N"), _check_count(omega_dim, "omega_dim")
    gen = np.random.Generator(np.random.Philox(key=_check_seed(seed)))
    uniforms = gen.integers(0, 2**53, size=(N, omega_dim), dtype=np.uint64).astype(float)
    uniforms += 0.5
    uniforms /= 2**53
    x = ndtri(uniforms)
    with np.errstate(over="ignore"):  # a draw beyond the floats is inf, which SampleEvaluator refuses
        x *= dist.std
        x += dist.mean
    return x


# the dense blocks SampleEvaluator realizes on first access
_DENSE = frozenset(("A2", "B2", "C2", "D2", "p", "q"))


class SampleEvaluator:
    """Residual, Jacobian and merit evaluation over a fixed sample.

    The one implementation of F (f_values), G1 and G2 (see reformulate), the
    Fischer-Burmeister residual R and merit theta = 0.5 ||R||^2 (see merit),
    and the Jacobian of R; a single draw is the case N = 1.  The Jacobian is
    only ever assembled blockwise, as its sample mean
    (mean_jacobian_residual) and as the weighted sum of J_j^T R_j
    (weighted_merit_grad); no (N, dim, dim) array is formed.

    Storage.  The data are affine in the draw, T(w) = T_0 + sum_o w_o T_o and
    r(w) = r_0 + sum_o w_o r_o, so the sample is kept as its draws,
    W = (1, w)^T of shape (d + 1, N) with d = omega_dim, next to one small
    operator K of shape ((m + 1)(d + 1), m + 2), m = k + l.  Row (i, o) of K
    maps (x_m, u, t, 1) to (T_o x + r_o)_i with x = (x_m + t e, u), and rows
    (m, o) are the sums of the first k, so (K (x_m, u, t, 1)) viewed as
    (m + 1, d + 1) times W is G1, v and e^T G1 for every draw in one
    product.  Repeated perturbation entries add up in K as they do in
    realize_batch.  Sums over the draws contract against W first:
    sum_n T(w_n)^T y_n is y W^T contracted with K, and the sample mean of T
    is K against the row means of W.

    Cost.  That product takes (m + 1)(d + 1) N multiply-adds and reads
    (d + 1) N values, where one over the realized T(w_n) takes m^2 N of each.
    It wins while d + 1 is below about m, as in the bundled example
    (d + 1 = 4, m = 5) and in data with a few random entries; when every
    entry of T and r has a draw of its own (d = m^2 + m) it loses: at k = 10,
    l = 6, N = 5000 on a 2-vCPU Xeon VM _g1_v took 1.7 ms there, against
    0.55 ms for a product over the realized matrices.

    Buffers.  Every per-draw quantity is a (rows, N) array.  _g1_v,
    residuals, thetas and _fb_coeffs fill arrays the caller owns, and the
    gradient kernels, weighted_merit_grad and mean_jacobian_residual, only
    read the arrays at their point (f from _g1_v, res, the FB coefficients
    fb), so a caller that evaluates many points of one sample forms those
    once per point in buffers it allocates once.  Only the one-shot entry
    points, f_values and _g1_v, residuals and thetas called without arrays,
    allocate their own.

    The sample-last flat blocks A2, B2, C2, D2 (x @ A2 is A x as k N values)
    and the offsets p, q ((rows, N)) are realized by realize_batch on first
    access only; no kernel reads them, but perfbench/spans.py's byte counter
    does in traced runs.
    """

    def __init__(self, spec: ProblemSpec, draws) -> None:
        self.spec = spec
        k = self.k = spec.dims.k
        l = self.l = spec.dims.l
        m = k + l
        self.dim = m + 1
        draws = _check_omegas(spec, draws)
        n = self.N = draws.shape[0]
        d1 = spec.omega_dim + 1
        self.W = np.empty((d1, n))
        self.W[0] = 1.0
        self.W[1:] = draws.T
        # coef[o] = [T_o | r_o]: o = 0 the base data, o >= 1 the coefficients of w_(o-1)
        coef = np.zeros((d1, m, m + 1))
        coef[0, :, :m] = spec.T_base
        coef[0, :, m] = spec.r_base
        for entry in spec.T_perturb:
            coef[entry.omega_index + 1, entry.row, entry.col] += entry.coeff
        for entry in spec.r_perturb:
            coef[entry.omega_index + 1, entry.row, m] += entry.coeff
        K = np.empty((m + 1, d1, m + 2))
        K[:m, :, :m] = coef[:, :, :m].transpose(1, 0, 2)
        K[:m, :, m] = K[:m, :, :k].sum(axis=2)  # x = x_m + t e
        K[:m, :, m + 1] = coef[:, :, m].T
        K[m] = K[:k].sum(axis=0)
        self.K = K.reshape(-1, m + 2)
        self._eye = np.eye(l, l + 1)  # I beside a zero column, scaled per point in residuals
        # per-point scratch: (x_m, u, t, 1), its image under K and [t I | u]
        self._z1 = np.ones(m + 2)
        self._coeffs = np.empty((m + 1) * d1)
        self._head = np.empty((l, l + 1))
        # for RayBound: the sample's first two moments, W's row means and
        # W W^T / N, and |K| with row (i, o) scaled by the root mean square
        # of W's row o
        self.W_bar = self.W.mean(axis=1)
        self.M = (self.W @ self.W.T) / n
        self._K_abs = (np.abs(K) * np.sqrt(np.diag(self.M))[:, None]).reshape(-1, m + 2)
        # sample mean of T; then what weighted_merit_grad and
        # mean_jacobian_residual read at every point, built once: W^T, K's
        # FB-row blocks and gradient columns, T_bar's head rows and the column
        # sums of its first k rows
        self.T_bar = np.einsum("ioj,o->ij", K[:m, :, :m], self.W_bar)
        self._WT = self.W.T
        self._K_fb = K[:k, :, :m]
        self._K_grad = self.K[: m * d1, : m + 1]
        self._T_head = self.T_bar[k:]
        self._T_colsum = self.T_bar[:k].sum(axis=0)

    def __getattr__(self, name: str):
        # only reached for attributes not set yet: the dense blocks
        if name not in _DENSE:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        k, n = self.k, self.N
        T, r = realize_batch(self.spec, self.W[1:].T)
        # tt[j, i n + n'] = T(w_n')[i, j]
        tt = np.ascontiguousarray(T.transpose(2, 1, 0)).reshape(T.shape[1], -1)
        del T
        rt = np.ascontiguousarray(r.T)
        vars(self).update(
            A2=tt[:k, : k * n],
            B2=tt[k:, : k * n],
            C2=tt[:k, k * n :],
            D2=tt[k:, k * n :],
            p=rt[:k],
            q=rt[k:],
        )
        return vars(self)[name]

    def _g1_v(self, z: np.ndarray, out: np.ndarray | None = None, W: np.ndarray | None = None) -> np.ndarray:
        # one product over the draws at z = (x_m, u, t): G1 = A x + B u + p,
        # v = C x + D u + q, x = x_m + t e, as the rows of out, (k + l + 1, N):
        # G1 in the first k, v in the next l, e^T G1 in the last.  W, some of
        # self.W's columns, evaluates those draws alone, one column of out each
        z1 = self._z1
        z1[:-1] = z
        coeffs = np.dot(self.K, z1, self._coeffs).reshape(self.dim, -1)
        return np.dot(coeffs, self.W if W is None else W, out)

    def f_values(self, x, u, omega=None, out: np.ndarray | None = None) -> np.ndarray:
        """F(x, u, w) = T(w) (x; u) + r(w) over the sample, shape (k + l, N), or at the one draw omega, (k + l,).

        The rows of _g1_v at z = (x, u, 0): over the sample, a view of out,
        a (k + l + 1, N) array it overwrites, or else of a fresh one; at
        omega, of the one column (1, omega).
        """
        z = np.concatenate([*_check_point(self.spec.dims, x, u), [0.0]])
        if omega is None:
            return self._g1_v(z, out)[:-1]
        w1 = np.concatenate(([1.0], _check_vector(omega, "omega", self.spec.omega_dim)))[:, None]
        return self._g1_v(z, W=w1)[:-1, 0]

    def _fb_rows(self, z: np.ndarray, f: np.ndarray, out: np.ndarray) -> np.ndarray:
        # the k Fischer-Burmeister rows sqrt(x_m^2 + G1^2) - x_m - G1 of the
        # residual into out[:k], which is returned; one column per column of f
        g1 = f[: self.k]
        xm = z[: self.k, None]
        fb = out[: self.k]
        np.multiply(g1, g1, out=fb)
        fb += xm * xm
        np.sqrt(fb, out=fb)
        fb -= g1
        fb -= xm
        return fb

    def residuals(
        self, z: np.ndarray, f: np.ndarray | None = None, out: np.ndarray | None = None, head_only: bool = False
    ) -> np.ndarray:
        """Stacked residuals at z = (x_m, u, t), shape (k+l+1, N): out, filled, or a fresh array.

        The columns are those of f, when given.  head_only: out's first k
        rows already hold the FB rows at z and f (_fb_rows), so only the
        head and norm rows are filled.
        """
        k, l = self.k, self.l
        m = k + l
        u, t = z[k:m], float(z[m])
        if f is None:
            f = self._g1_v(z)
        if out is None:
            out = np.empty((self.dim, self.N))
        if not head_only:
            self._fb_rows(z, f, out)
        # t (C x + D u + q) + u e^T (A x + B u + p) is [t I | u] times the rows (v, e^T G1)
        head = np.multiply(self._eye, t, self._head)
        head[:, l] = u
        np.dot(head, f[k:], out[k:m])
        out[m] = t * t - float(u @ u)
        return out

    def thetas(self, z: np.ndarray, res: np.ndarray | None = None, out: np.ndarray | None = None) -> np.ndarray:
        """Merit losses 0.5 ||R_j||^2, shape (N,), from the residuals res at z."""
        if res is None:
            res = self.residuals(z)
        out = np.einsum("in,in->n", res, res, out=out)
        out *= 0.5
        return out

    def _fb_coeffs(self, z: np.ndarray, f: np.ndarray, out: np.ndarray) -> np.ndarray:
        # the FB coefficients dpsi/da, dpsi/db at ((x_m)_i, (G1)_i) into out,
        # (2, k, N), which is returned, with (-1, -1) at the origin, where a
        # norm raised to the smallest normal float makes both ratios 0
        g1 = f[: self.k]
        xm = z[: self.k, None]
        inv, db = out
        np.multiply(g1, g1, out=inv)
        inv += xm * xm
        np.sqrt(inv, out=inv)
        np.maximum(inv, _TINY, out=inv)
        np.divide(1.0, inv, out=inv)
        np.multiply(g1, inv, out=db)
        db -= 1.0
        inv *= xm
        inv -= 1.0
        return out

    def weighted_merit_grad(
        self, z: np.ndarray, w: np.ndarray, res: np.ndarray, f: np.ndarray, fb: np.ndarray, work: np.ndarray
    ) -> np.ndarray:
        """(1/N) sum_j w_j J_j^T R_j at z = (x_m, u, t) as one vector, no (N, dim, dim) arrays.

        w, shape (N,), weighs the draws; res, f and fb are the residuals,
        the _g1_v array and the FB coefficients at z; work, (k + l, N), is
        overwritten.
        """
        k, m = self.k, self.dim - 1
        u, t = z[k:m], float(z[m])
        da, db = fb
        wfb, wh = work[:k], work[k:]
        np.multiply(res[:k], w, out=wfb)
        np.multiply(res[k:m], w, out=wh)
        wt_sum = float(w @ res[m])
        g = np.empty(self.dim)
        g[:k] = np.einsum("in,in->i", wfb, da)
        g[k:m] = wh @ f[m] - 2.0 * u * wt_sum
        # x = x_m + t e, so the t component is the sum of the T-dependent x_m
        # components (K's t column, added below), plus v in the head block
        # and 2 t in the norm row
        g[m] = float(np.vdot(f[k:m], wh)) + 2.0 * t * wt_sum
        # every T-dependent part of J_j^T R_j is T_j^T y_j: D_b-weighted FB
        # rows plus the u e^T A term in the x_m and u columns, t times the
        # head block in the C, D columns; sum_j T_j^T y_j = sum_o T_o^T (y W^T)_o,
        # which K's first m + 1 columns give in (x_m, u, t) components
        wfb *= db
        wfb += u @ wh
        wh *= t
        g += (work @ self._WT).reshape(-1) @ self._K_grad
        return g / self.N

    def mean_jacobian_residual(
        self, z: np.ndarray, res: np.ndarray, f: np.ndarray, fb: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Sample means of the Jacobians and residuals at z, assembled blockwise.

        res, f and fb as for weighted_merit_grad.
        """
        k, n = self.k, self.N
        m = self.dim - 1
        u, t = z[k:m], float(z[m])
        da, db = fb
        jbar = np.zeros((self.dim, self.dim))
        diag = jbar.ravel()[:: self.dim + 1]
        # FB rows D_b [A | B]: sum_j (D_b)_j T_j = sum_o (D_b W^T)_o T_o, then
        # the head block t [C | D] + u e^T [A | B] + s1 [0 | I]; each mean is
        # np.mean's sum and division, without its wrapper
        jbar[:k, :m] = np.einsum("io,ioj->ij", db @ self._WT, self._K_fb) / n
        jbar[k:m, :m] = t * self._T_head + u[:, None] * self._T_colsum
        diag[k:m] += float(np.add.reduce(f[m])) / n
        # the t column: row sums of the x_m columns (see weighted_merit_grad)
        jbar[:m, m] = np.add.reduce(jbar[:m, :k], 1)
        jbar[k:m, m] += np.add.reduce(f[k:m], 1) / n
        diag[:k] += np.add.reduce(da, 1) / n
        jbar[m, k:m] = -2.0 * u
        jbar[m, m] = 2.0 * t
        return jbar, np.add.reduce(res, 1) / n


class RayBound:
    """A lower bound of the mean merit at z + s d, s >= 0, in closed form.

    The draws enter the residual only through W = (1, w)^T.  The l head rows
    t v + u e^T G1 are q_h(s) . W_j, with q_h quadratic in s, so their mean
    square is sum_h q_h(s)^T M q_h(s), M = W W^T / N, a quartic in s; the
    norm row t^2 - ||u||^2, quadratic in s and the same for every draw, adds
    its square.  phi(x_i, .) is convex, so the mean of FB row i is at least
    phi(x_i(s), mean G1_i(s)), and its mean square at least the square of
    that where it is positive; at N = 1 the mean is the draw, and the square
    is kept whatever its sign.  Half the sum is at most the mean merit (modes
    erm and ev), which is at most the empirical CVaR for alpha < 1, and so at
    most min_Theta Nhat (mode cvar).

    Rounding.  The bound and the exact merit are rounded differently, each
    by less than about 1e-16 (k + l + omega_dim)^2 S(s), where

        S(s) = zeta^2 (zeta^2 + 2 alpha^2 + 2) + 2 alpha^2,
        zeta = ||(z, 1)|| + s ||d||,
        alpha = ||D |K| (|z|, 1)|| + s ||D |K| (|d|, 0)||,

    and D scales row (i, o) of K by the root mean square of W's row o.  S
    bounds the mean square over the draws of every row's terms in absolute
    value, up to a factor omega_dim + 1, so unlike the bound itself it does
    not shrink where the terms of a row cancel, as they do at a solution.
    screen answers only when the bound exceeds the bar by more than
    _RAY_RTOL (|bar| + S(s)).  S bounds every term the bound is built from,
    so an overflow while building the bound or evaluating it at a step makes
    the margin infinite, or the bound nan, and such a bound screens nothing.
    """

    __slots__ = ("_lead", "_scale", "_fb", "_clip")

    def __init__(self, ev: SampleEvaluator, z: np.ndarray, d: np.ndarray) -> None:
        k, m = ev.k, ev.dim - 1
        # columns (z, 1) and (d, 0) in (x_m, u, t, 1) coordinates, so that
        # K zd holds the s^0 and s^1 coefficients of G1, v and e^T G1 against W
        zd = np.empty((m + 2, 2))
        zd[:-1, 0] = z
        zd[:-1, 1] = d
        zd[-1] = (1.0, 0.0)
        with np.errstate(all="ignore"):
            c = (ev.K @ zd).reshape(m + 1, -1, 2).transpose(2, 0, 1)  # (b, row, o)
            g1_mean = (c[:, :k] @ ev.W_bar).tolist()
            # the head rows are [t I | u] (v; e^T G1) . W, so with
            # h_a = [t_a I | u_a], x_ab = h_a c_b[k:] is the coefficient of
            # s^(a + b) contributed by that pair
            h = ev._eye * zd[m, :, None, None]
            h[:, :, -1] = zd[k:m].T
            x = h[:, None] @ c[:, k:]  # (a, b, h, o)
            g = (x.reshape(4, -1) @ (x @ ev.M).reshape(4, -1).T).tolist()
            (p00, p01), (_, p11) = (zd[k:-1].T @ zd[k:-1]).tolist()  # (u; t)
            (z0, _), (_, z1) = (zd.T @ zd).tolist()
            a = ev._K_abs @ np.abs(zd)
            (a0, _), (_, a1) = (a.T @ a).tolist()
        t0, t1 = zd[m].tolist()
        # the norm row (t0 + s t1)^2 - ||u0 + s u1||^2 = n0 + n1 s + n2 s^2
        n0, n1, n2 = 2.0 * t0 * t0 - p00, 2.0 * (2.0 * t0 * t1 - p01), 2.0 * t1 * t1 - p11
        lead = (
            g[0][0] + n0 * n0,
            2.0 * (g[0][1] + g[0][2] + n0 * n1),
            g[1][1] + 2.0 * g[1][2] + g[2][2] + 2.0 * g[0][3] + n1 * n1 + 2.0 * n0 * n2,
            2.0 * (g[1][3] + g[2][3] + n1 * n2),
            g[3][3] + n2 * n2,
        )
        self._lead = tuple(0.5 * q for q in lead)
        self._scale = tuple(map(math.sqrt, (z0, z1, a0, a1)))
        self._fb = tuple(zip(*zd[:k].T.tolist(), *g1_mean))
        self._clip = ev.N > 1

    def _quartic(self, s: float) -> float:
        q0, q1, q2, q3, q4 = self._lead
        return (((q4 * s + q3) * s + q2) * s + q1) * s + q0

    def _fb_terms(self, s: float) -> float:
        acc = 0.0
        for x, dx, g, dg in self._fb:
            x += s * dx
            g += s * dg
            phi = math.sqrt(x * x + g * g) - x - g
            if phi > 0.0 or not self._clip:
                acc += phi * phi
        return 0.5 * acc

    def floor(self, s: float, bar: float) -> float:
        """The head and norm rows' share of the bound at step s, less the margin.

        Their half mean square is the quartic exactly, so this is at most
        their share of the mean merit at s, rounding included.
        """
        return self._quartic(s) - self.margin(s, bar)

    def margin(self, s: float, bar: float) -> float:
        """How far the bound must exceed bar before screen answers."""
        z0, z1, a0, a1 = self._scale
        zeta = z0 + s * z1
        alpha = a0 + s * a1
        zeta *= zeta
        alpha *= alpha
        return _RAY_RTOL * (abs(bar) + zeta * (zeta + 2.0 * alpha + 2.0) + 2.0 * alpha)

    def screen(self, s: float, bar: float) -> float | None:
        """The bound at step s if it exceeds bar by more than the margin, else None.

        The FB rows' terms are added only when the quartic alone does not
        exceed it.
        """
        limit = bar + self.margin(s, bar)
        low = self._quartic(s)
        if not low > limit:
            low += self._fb_terms(s)
        return low if low > limit else None
