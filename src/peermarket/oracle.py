"""Reference solvers used to validate the trading engine.

Two independent routes to the same optimum:

* bisection_clearing solves the uniform-wedge case (free market or unique
  policy) by bisecting the aggregate supply/demand balance on the clearing
  price.
* qp_reference solves the general case (any gamma matrix) as a quadratic
  program over nonnegative producer-to-consumer trade variables with
  projected gradient descent; each projection onto the feasible set is
  solved on its dual, one multiplier per producer row and consumer column,
  by semismooth Newton steps to within PROJECTION_TOL.

Neither shares any update logic with the engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .community import PRODUCER, check_feasible, validate_gamma
from .errors import InfeasibleError, ValidationError

BISECTION_BALANCE_TOL = 1e-6   # MW
PROJECTION_TOL = 1e-8          # MW
STATIONARITY_TOL = 1e-4        # €/MW
_EMPTY = "feasible set is empty: the partnered pairs cannot meet the producer and consumer bounds"


@dataclass(frozen=True)
class OracleResult:
    clearing_price: float | None
    net_powers: np.ndarray
    trades: np.ndarray | None
    social_welfare: float
    stationarity: float | None = None
    objective_history: np.ndarray | None = None


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
        if _clamped_net(community, mid, wedge).sum() >= 0.0:
            hi = mid
        else:
            lo = mid
    lam = 0.5 * (lo + hi)
    net = _clamped_net(community, lam, wedge)
    residual = float(net.sum())
    if abs(residual) > BISECTION_BALANCE_TOL:
        raise InfeasibleError(f"bisection failed to balance the market ({residual:+.3e} MW)")
    return OracleResult(clearing_price=lam, net_powers=net, trades=None,
                        social_welfare=social_welfare(community, net))


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


def _line_minimum(slope, start):
    """Where a convex function of c >= 0 stops falling, given its right
    derivative: bracketed by doubling from ``start``, then bisected. Returns
    the last point found still falling, 0 if it rises from the start and
    inf if it still falls after 60 doublings."""
    lo, hi = 0.0, start
    for _ in range(60):
        if slope(hi) >= 0.0:
            break
        lo, hi = hi, 2.0 * hi
    else:
        return np.inf
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        if slope(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
    return lo


def _project_feasible(v, lo, hi, x, max_steps=20000):
    """Project ``v`` onto {t >= 0, lo <= [row sums; column sums] <= hi}.

    Disallowed pairs are -inf in ``v`` and stay exactly 0; ``lo`` is finite.
    The projection is solved on its dual, one multiplier per row and per
    column stacked in ``x`` (the starting point; returns ``(t, x)``):
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
        sums = np.concatenate((t.sum(axis=1), t.sum(axis=0)))
        target = np.clip(sums + x, lo, hi)
        F = sums - target
        return w, t, sums, F, target != sums + x, float(np.sqrt(F @ F))

    w, t, sums, F, clipped, norm = residual(x)
    for _ in range(max_steps):
        if norm <= PROJECTION_TOL:
            return t, x
        # -dF/dx: identity where the multiplier is inside its box (F = -x),
        # the active bipartite graph's signless Laplacian where it is clipped
        active = (w > 0.0).astype(float)
        degree = np.concatenate((active.sum(axis=1), active.sum(axis=0)))
        jac = np.zeros((len(x), len(x)))
        jac[:rows, rows:] = active
        jac[rows:, :rows] = active.T
        jac[~clipped] = 0.0
        jac[np.diag_indices_from(jac)] = np.where(clipped, np.maximum(degree, 1.0), 1.0)
        # a clipped multiplier without active pairs first moves to where its
        # best allowed pair activates
        best = np.concatenate((w.max(axis=1), w.max(axis=0)))
        rhs = F + np.where(clipped & (degree == 0) & (best > -np.inf), best, 0.0)
        # least squares, so no step runs along the Jacobian's null space
        normal = jac.T @ jac + 1e-10 * np.eye(len(x))
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
            # dual may fall no further along a ray when a box is tight.
            drift = rhs - jac @ step
            reach = 0.0
            if drift @ drift > 0.25 * (rhs @ rhs):
                drift[np.abs(drift) <= 1e-9 * np.abs(drift).max()] = 0.0
                x = np.where(hi < np.inf, x, np.minimum(x, 0.0))

                def slope(c):
                    y = x + c * drift
                    bound = np.where((y > 0.0) | ((y == 0.0) & (drift > 0.0)), hi, lo)
                    return drift @ (bound - residual(y)[2]) + PROJECTION_TOL * np.abs(drift).sum()

                reach = _line_minimum(slope, 1.0)
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


def qp_reference(community, gamma, max_iterations=20000):
    """Reference optimum for an arbitrary gamma matrix.

    Variables are nonnegative producer-to-consumer MW, zero on unpartnered
    pairs; producer/consumer net bounds become row/column sum boxes.
    Projected gradient with spectral (Barzilai-Borwein) step lengths and a
    monotone Armijo safeguard; the certificate is the prox-gradient residual
    at the fixed step 1/L, reported in €/MW. Each projection starts from the
    multipliers of the previous one.
    """
    gamma = validate_gamma(community, gamma)
    check_feasible(community)
    producers = [i for i, ag in enumerate(community.agents) if ag.role == PRODUCER]
    consumers = [i for i, ag in enumerate(community.agents) if ag.role != PRODUCER]
    a_p = community.a[producers]
    b_p = community.b[producers]
    a_c = community.a[consumers]
    b_c = community.b[consumers]
    wedge = gamma[np.ix_(producers, consumers)] - gamma[np.ix_(consumers, producers)].T
    allowed = community.partner_mask()[np.ix_(producers, consumers)]
    lo = np.concatenate((community.p_min[producers], -community.p_max[consumers]))
    hi = np.concatenate((community.p_max[producers], -community.p_min[consumers]))
    partnered = np.concatenate((allowed.any(axis=1), allowed.any(axis=0)))
    if (lo[~partnered] > 0.0).any():
        raise InfeasibleError(_EMPTY)

    def objective(t):
        r = t.sum(axis=1)
        s = t.sum(axis=0)
        produce = np.sum(0.5 * a_p * r * r + b_p * r)
        consume = np.sum(0.5 * a_c * s * s - b_c * s)
        return float(produce + consume + np.sum(wedge * t))

    def gradient(t):
        r = t.sum(axis=1)
        s = t.sum(axis=0)
        g = (a_p * r + b_p)[:, None] - (b_c - a_c * s)[None, :] + wedge
        return np.where(allowed, g, 0.0)

    multipliers = np.zeros(len(producers) + len(consumers))

    def project(v):
        # warm-started from the multipliers of the previous projection
        nonlocal multipliers
        t, multipliers = _project_feasible(np.where(allowed, v, -np.inf), lo, hi, multipliers)
        return t

    base_step = 1.0 / (np.max(a_p) * len(consumers) + np.max(a_c) * len(producers))
    t = project(np.zeros((len(producers), len(consumers))))
    value = objective(t)
    grad = gradient(t)
    history = [value]
    tau = base_step
    stationarity = np.inf
    for _ in range(max_iterations):
        fixed = project(t - base_step * grad)
        stationarity = float(np.max(np.abs(fixed - t)) / base_step)
        if stationarity <= STATIONARITY_TOL:
            break
        # monotone Armijo on the projected arc, halving the spectral step
        while True:
            trial = project(t - tau * grad) if tau != base_step else fixed
            descent = float(np.sum(grad * (trial - t)))
            if objective(trial) <= value + 1e-4 * descent and descent <= 0.0:
                break
            tau *= 0.5
            if tau < 1e-12 * base_step:
                trial = fixed
                break
        step_vec = trial - t
        grad_new = gradient(trial)
        curve = float(np.sum(step_vec * (grad_new - grad)))
        energy = float(np.sum(step_vec * step_vec))
        tau = min(energy / curve, 1e6 * base_step) if curve > 1e-16 else 1e6 * base_step
        t, grad, value = trial, grad_new, objective(trial)
        history.append(value)
    else:
        raise InfeasibleError(
            f"projected gradient exhausted iterations (stationarity {stationarity:.2e})")

    n = len(community.agents)
    trades = np.zeros((n, n))
    pidx = np.asarray(producers)
    cidx = np.asarray(consumers)
    trades[np.ix_(pidx, cidx)] = t
    trades[np.ix_(cidx, pidx)] = -t.T
    net = trades.sum(axis=1)
    return OracleResult(clearing_price=None, net_powers=net, trades=trades,
                        social_welfare=social_welfare(community, net),
                        stationarity=stationarity,
                        objective_history=np.asarray(history))
