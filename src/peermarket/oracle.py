"""Reference solvers used to validate the trading engine.

Two independent routes to the same optimum:

* bisection_clearing solves the uniform-wedge case (free market or unique
  policy) by bisecting the aggregate supply/demand balance on the clearing
  price. It stops once the bracket's ends are adjacent floats, where no
  further halving can move the price.
* qp_reference solves the general case (any gamma matrix) as a quadratic
  program over nonnegative producer-to-consumer trade variables with
  projected gradient descent; each projection onto the feasible set is
  solved on its dual, one multiplier per producer row and consumer column,
  by semismooth Newton steps to within PROJECTION_TOL. The projections at
  the fixed step and at the spectral step each warm-start from the last
  projection of their own kind (see qp_reference). The fixed-step
  projection only serves the stop test, and it is skipped when the
  iteration's first spectral trial proves that test would fail: from a
  feasible t, |P(t - tau g) - t| / tau does not increase with tau (Calamai
  and More, Math. Programming 39, 1987, Lemma 2.2).

Neither shares any update logic with the engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .community import check_feasible, validate_gamma
from .errors import InfeasibleError, ValidationError

BISECTION_BALANCE_TOL = 1e-6   # MW
PROJECTION_TOL = 1e-8          # MW
STATIONARITY_TOL = 1e-4        # €/MW
QP_MAX_ITERATIONS = 20000      # projected-gradient steps
_EMPTY = "feasible set is empty: the partnered pairs cannot meet the producer and consumer bounds"


@dataclass(frozen=True)
class OracleResult:
    clearing_price: float | None
    net_powers: np.ndarray
    trades: np.ndarray | None
    stationarity: float | None = None
    objective_history: np.ndarray | None = None
    newton_steps: int = 0


def social_welfare(community, net_powers):
    """Aggregate cost Sum a/2 P^2 + b P + c (lower is better; the consumer
    sign convention makes this the negated welfare)."""
    p = np.asarray(net_powers, dtype=float)
    return float(np.sum(0.5 * community.a * p * p + community.b * p + community.c))


def market_objective(community, trades, gamma):
    """Full objective: aggregate cost plus differentiation payments."""
    trades = np.asarray(trades, dtype=float)
    net = trades.sum(axis=1)
    return social_welfare(community, net) + float(np.sum(np.asarray(gamma) * trades))


def _clamped_net(community, lam, wedge):
    price = lam - np.where(community.sign > 0, wedge / 2.0, -wedge / 2.0)
    return np.clip((price - community.b) / community.a, community.p_min, community.p_max)


def bisection_clearing(community, wedge=0.0):
    """Uniform clearing price by bisection on the balance residual.

    The residual Sum_n P_n(lam) is nondecreasing in lam (sum of clamped
    affine responses), so the root is unique up to flat segments.
    """
    if not np.isfinite(wedge):
        raise ValidationError("wedge must be finite")
    check_feasible(community)
    side = np.where(community.sign > 0, wedge / 2.0, -wedge / 2.0)
    lo = float(np.min(community.b + community.a * community.p_min + side)) - 1.0
    hi = float(np.max(community.b + community.a * community.p_max + side)) + 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            # adjacent floats: no further halving can move the price
            break
        if _clamped_net(community, mid, wedge).sum() >= 0.0:
            hi = mid
        else:
            lo = mid
    lam = 0.5 * (lo + hi)
    net = _clamped_net(community, lam, wedge)
    residual = float(net.sum())
    if abs(residual) > BISECTION_BALANCE_TOL:
        raise InfeasibleError(f"bisection failed to balance the market ({residual:+.3e} MW)")
    return OracleResult(clearing_price=lam, net_powers=net, trades=None)


def _fill_level(w, target):
    """Per row of ``w``, the level lam with sum max(w - lam, 0) = target.

    Water-filling on the sorted breakpoints (largest j with
    u_j > (cumsum_j - target)/j). Disallowed entries are -inf and never fill.
    A target of 0 gives the smallest such level, the row maximum, or 0 for a
    row with nothing allowed.
    """
    u = -np.sort(-w, axis=1)
    cs = np.cumsum(np.where(u > -np.inf, u, 0.0), axis=1)
    level = (cs - target[:, None]) / np.arange(1, w.shape[1] + 1)
    valid = u > level
    rho = valid.cumsum(axis=1).argmax(axis=1)
    filled = np.take_along_axis(level, rho[:, None], axis=1)[:, 0]
    return np.where(valid.any(axis=1), filled, np.maximum(u[:, 0], 0.0))


def _row_step(w, lo, hi):
    """Exact row multipliers for fixed column multipliers: each row of
    max(w - lam, 0) brought into its sum box by the smallest shift."""
    free = np.maximum(w, 0.0).sum(axis=1)
    target = np.clip(free, lo, hi)
    return np.where(free == target, 0.0, _fill_level(w, target))


def _line_minimum(slope, kinks):
    """Where a convex function of c >= 0 stops falling. ``slope(c)`` gives
    its right derivative at c and the rate at which that derivative rises
    there; the derivative is linear between the points of ``kinks`` (those
    that are finite and positive) and may jump up at them. Bisected over
    the sorted kinks, then solved on the one linear piece where the
    derivative turns nonnegative. Returns 0 if it rises from the start and
    inf if it still falls past the last kink at a zero rate."""
    points = np.unique(kinks[np.isfinite(kinks) & (kinks > 0.0)])
    # the derivative falls at points[lo] (lo = -1 stands for c = 0, unknown)
    # and rises at points[hi] (hi = len(points) for none)
    lo, hi = -1, len(points)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if slope(points[mid])[0] >= 0.0:
            hi = mid
        else:
            lo = mid
    start = points[lo] if lo >= 0 else 0.0
    end = points[hi] if hi < len(points) else np.inf
    probe = 0.5 * (start + end) if end < np.inf else 2.0 * start + 1.0
    value, rate = slope(probe)
    if rate > 0.0:
        return min(max(probe - value / rate, start), end)
    return start if value >= 0.0 else end


def _project_feasible(v, lo, hi, x, max_steps=20000):
    """Project ``v`` onto {t >= 0, lo <= [row sums; column sums] <= hi}.

    Disallowed pairs are -inf in ``v`` and stay exactly 0; ``lo`` is finite.
    The projection is solved on its dual, one multiplier per row and per
    column stacked in ``x`` (the starting point; returns ``(t, x, steps)``,
    with the number of steps taken):
    t = max(v - x_p - x_c, 0), and a multiplier is positive only where its
    sum sits at the upper bound, negative only at the lower bound. Each step
    is a semismooth Newton step on the natural residual
    F = sums - clip(sums + x, lo, hi) with backtracking. When no step length
    reduces |F|, the step is instead a line minimisation of the dual if the
    Newton system is inconsistent, else one exact block-coordinate cycle:
    row water-filling, then columns.
    """
    rows = v.shape[0]

    def residual(x):
        w = v - x[:rows, None] - x[None, rows:]
        t = np.maximum(w, 0.0)
        sums = np.concatenate((np.add.reduce(t, axis=1), np.add.reduce(t, axis=0)))
        shifted = sums + x
        target = np.minimum(np.maximum(shifted, lo), hi)
        F = sums - target
        return w, t, sums, F, target != shifted, math.sqrt(F @ F)

    w, t, sums, F, clipped, norm = residual(x)
    for steps in range(max_steps):
        if norm <= PROJECTION_TOL:
            return t, x, steps
        # -dF/dx: identity where the multiplier is inside its box (F = -x),
        # the active bipartite graph's signless Laplacian where it is clipped
        active = (w > 0.0).astype(float)
        degree = np.concatenate((active.sum(axis=1), active.sum(axis=0)))
        jac = np.zeros((len(x), len(x)))
        jac[:rows, rows:] = active
        jac[rows:, :rows] = active.T
        jac[~clipped] = 0.0
        jac.flat[::len(x) + 1] = np.where(clipped, np.maximum(degree, 1.0), 1.0)
        # a clipped multiplier without active pairs first moves to where its
        # best allowed pair activates
        best = np.concatenate((w.max(axis=1), w.max(axis=0)))
        rhs = F + np.where(clipped & (degree == 0) & (best > -np.inf), best, 0.0)
        # least squares, so no step runs along the Jacobian's null space
        normal = jac.T @ jac
        normal.flat[::len(x) + 1] += 1e-10
        step = np.linalg.solve(normal, jac.T @ rhs)
        length = 1.0
        for _ in range(8):
            trial = residual(x + length * step)
            if trial[-1] <= (1.0 - 1e-4 * length) * norm:
                x = x + length * step
                break
            length *= 0.5
        else:
            # What the least-squares step leaves of rhs lies along multipliers
            # that shift a clipped component without changing t. When that
            # is most of rhs, the clip pattern itself is wrong: minimise the
            # dual objective along it, until a pair activates or a multiplier
            # frees. Its slope is (bound - sums) . drift, with the bound of
            # each multiplier's sign (+inf where positive is not allowed);
            # a slope within the projection tolerance counts as flat, as the
            # dual may fall no further along a ray when a box is tight. Pair
            # ij moves by -(drift_i + drift_j) per unit while active, so the
            # slope rises at the rate sum (drift_i + drift_j)^2 over the
            # active pairs, and its kinks are where a multiplier changes
            # sign or a pair's w crosses 0.
            drift = rhs - jac @ step
            reach = 0.0
            if drift @ drift > 0.25 * (rhs @ rhs):
                drift[np.abs(drift) <= 1e-9 * np.abs(drift).max()] = 0.0
                x = np.where(hi < np.inf, x, np.minimum(x, 0.0))
                along = drift[:rows, None] + drift[None, rows:]

                def slope(c):
                    y = x + c * drift
                    bound = np.where((y > 0.0) | ((y == 0.0) & (drift > 0.0)), hi, lo)
                    moved = residual(y)
                    return (drift @ (bound - moved[2]) + PROJECTION_TOL * np.abs(drift).sum(),
                            float(np.square(along[moved[1] > 0.0]).sum()))

                with np.errstate(divide="ignore", invalid="ignore"):
                    kinks = np.concatenate((-x / drift,
                                            ((v - x[:rows, None] - x[None, rows:]) / along).ravel()))
                reach = _line_minimum(slope, kinks)
                if reach == np.inf:
                    # a ray along which the dual falls without bound
                    # certifies that no feasible point exists
                    raise InfeasibleError(_EMPTY)
            if reach > 0.0:
                x = x + reach * drift
            else:
                lam = _row_step(v - x[None, rows:], lo[:rows], hi[:rows])
                x = np.concatenate((lam, _row_step((v - lam[:, None]).T, lo[rows:], hi[rows:])))
            trial = residual(x)
        w, t, sums, F, clipped, norm = trial
    raise InfeasibleError("feasible-set projection did not converge; check bounds")


def qp_reference(community, gamma):
    """Reference optimum for an arbitrary gamma matrix.

    Variables are nonnegative producer-to-consumer MW, zero on unpartnered
    pairs; producer/consumer net bounds become row/column sum boxes.
    Projected gradient with spectral (Barzilai-Borwein) step lengths and a
    monotone Armijo safeguard; the certificate is the prox-gradient residual
    at the fixed step 1/L, reported in €/MW. It is computed on the
    iterations where it can pass and before raising at QP_MAX_ITERATIONS.
    The two kinds of projection keep separate warm starts: one at the fixed
    step starts from the multipliers of the last fixed-step projection, one
    at a spectral step from those of the last spectral projection scaled by
    the ratio of the step lengths (near the optimum t* = P(t* - tau grad)
    for every tau, so the multipliers grow in proportion to tau).
    """
    gamma = validate_gamma(community, gamma)
    check_feasible(community)
    pidx = np.flatnonzero(community.sign > 0)
    cidx = np.flatnonzero(community.sign < 0)
    P, C = pidx[:, None], cidx[None, :]
    a_p, b_p = community.a[pidx], community.b[pidx]
    a_c, b_c = community.a[cidx], community.b[cidx]
    wedge = gamma[P, C] - gamma[C, P]
    allowed = community.partner_mask()[P, C]
    lo = np.concatenate((community.p_min[pidx], -community.p_max[cidx]))
    hi = np.concatenate((community.p_max[pidx], -community.p_min[cidx]))

    disallowed = ~allowed
    root_n = math.sqrt(np.count_nonzero(allowed))

    def objective(t):
        r = np.add.reduce(t, axis=1)
        s = np.add.reduce(t, axis=0)
        return float((0.5 * a_p * r + b_p) @ r + (0.5 * a_c * s - b_c) @ s + np.vdot(wedge, t))

    def gradient(t):
        g = ((a_p * np.add.reduce(t, axis=1) + b_p)[:, None]
             - (b_c - a_c * np.add.reduce(t, axis=0))[None, :] + wedge)
        g[disallowed] = 0.0
        return g

    newton_steps = 0

    def project(v, x):
        nonlocal newton_steps
        v[disallowed] = -np.inf
        t, x, steps = _project_feasible(v, lo, hi, x)
        newton_steps += steps
        return t, x

    def certify():
        """The fixed-step projection of the current iterate, once per
        iterate, and the certificate it gives."""
        nonlocal fixed, fixed_x, stationarity
        if fixed is None:
            fixed, fixed_x = project(t - base_step * grad, fixed_x)
            stationarity = float(np.abs(fixed - t).max() / base_step)
        return fixed

    def projected(tau):
        """The projected-gradient point at step ``tau`` from the current iterate."""
        nonlocal spectral_x, spectral_tau
        if tau == base_step:
            return certify()
        trial, spectral_x = project(t - tau * grad, spectral_x * (tau / spectral_tau))
        spectral_tau = tau
        return trial

    base_step = 1.0 / (np.max(a_p) * len(cidx) + np.max(a_c) * len(pidx))
    t, fixed_x = project(np.zeros(allowed.shape), np.zeros(len(lo)))
    spectral_x, spectral_tau = fixed_x, base_step
    value = objective(t)
    grad = gradient(t)
    history = [value]
    tau = base_step
    stationarity = np.inf
    for _ in range(QP_MAX_ITERATIONS):
        fixed = None
        trial = projected(tau)
        # past the fixed step, |trial - t|_2 / (tau sqrt(n)) over the n
        # allowed pairs bounds the max-norm certificate from below (see the
        # module docstring); the stop test runs only when that bound lets it
        # pass
        gap = trial - t
        if tau <= base_step or math.sqrt(np.vdot(gap, gap)) <= STATIONARITY_TOL * tau * root_n:
            certify()
            if stationarity <= STATIONARITY_TOL:
                break
        # monotone Armijo on the projected arc, halving the spectral step
        while True:
            descent = float(np.vdot(grad, trial - t))
            trial_value = objective(trial)
            if trial_value <= value + 1e-4 * descent and descent <= 0.0:
                break
            tau *= 0.5
            if tau < 1e-12 * base_step:
                trial = certify()
                trial_value = objective(trial)
                break
            trial = projected(tau)
        step_vec = trial - t
        grad_new = gradient(trial)
        curve = float(np.sum(step_vec * (grad_new - grad)))
        energy = float(np.sum(step_vec * step_vec))
        tau = min(energy / curve, 1e6 * base_step) if curve > 1e-16 else 1e6 * base_step
        t, grad, value = trial, grad_new, trial_value
        history.append(value)
    else:
        fixed = None
        certify()
        raise InfeasibleError(
            f"projected gradient exhausted iterations (stationarity {stationarity:.2e})")

    trades = np.zeros((len(community.agents),) * 2)
    trades[P, C] = t
    trades[C, P] = -t
    net = trades.sum(axis=1)
    return OracleResult(clearing_price=None, net_powers=net, trades=trades,
                        stationarity=stationarity,
                        objective_history=np.asarray(history),
                        newton_steps=newton_steps)
