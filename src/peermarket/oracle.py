"""Reference solvers used to validate the trading engine.

Two independent routes to the same optimum:

* bisection_clearing solves the uniform-wedge case (free market or unique
  policy) by bisecting the aggregate supply/demand balance on the clearing
  price.
* qp_reference solves the general case (any gamma matrix) as a quadratic
  program over nonnegative producer-to-consumer trade variables with
  projected gradient descent; the feasible set projection alternates row and
  column corrections (Dykstra) until it is exact.

Neither shares any update logic with the engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .community import PRODUCER, check_feasible
from .errors import InfeasibleError

BISECTION_BALANCE_TOL = 1e-6   # MW
PROJECTION_TOL = 1e-8          # MW
STATIONARITY_TOL = 1e-4        # €/MW


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


def _shift_to_sum(v, target):
    """Exact projection of each row of ``v`` onto {x >= 0, sum x = target}.

    Water-filling: x = max(v + nu, 0) with the shift found from the sorted
    breakpoints (largest j with u_j + (target - cumsum_j)/j > 0). target must
    be >= 0; target = 0 falls through to the all-zero row.
    """
    u = -np.sort(-v, axis=1)
    cs = np.cumsum(u, axis=1)
    j = np.arange(1, v.shape[1] + 1)
    nu = (target[:, None] - cs) / j
    valid = u + nu > 0.0
    rho = np.maximum(valid.cumsum(axis=1).argmax(axis=1), 0)
    any_valid = valid.any(axis=1)
    shift = np.where(any_valid, np.take_along_axis(nu, rho[:, None], axis=1)[:, 0], -np.inf)
    return np.maximum(v + shift[:, None], 0.0)


def _project_sum_box(values, lo, hi):
    """Project each row of ``values`` onto {x >= 0, lo <= sum x <= hi}."""
    base = np.maximum(values, 0.0)
    sums = base.sum(axis=1)
    out = base
    for which, bound in ((sums < lo, lo), (sums > hi, hi)):
        rows = np.nonzero(which)[0]
        if rows.size == 0:
            continue
        target = np.asarray(bound)[rows] if np.ndim(bound) else np.full(rows.size, bound)
        out = out.copy()
        out[rows] = _shift_to_sum(values[rows], target)
    return out


def _project_feasible(t, row_lo, row_hi, col_lo, col_hi, max_cycles=20000):
    """Dykstra alternation between the row-sum and column-sum constraint sets.

    Convergence is certified by the drift of the correction vectors, not the
    iterate: the iterate can sit still for several cycles while the
    corrections keep moving, then jump.
    """
    x = t
    p = np.zeros_like(t)
    q = np.zeros_like(t)
    for _ in range(max_cycles):
        y = _project_sum_box(x + p, row_lo, row_hi)
        p_new = x + p - y
        x = _project_sum_box((y + q).T, col_lo, col_hi).T
        q_new = y + q - x
        drift = float(np.sum((p_new - p) ** 2) + np.sum((q_new - q) ** 2))
        p, q = p_new, q_new
        if drift <= PROJECTION_TOL ** 2:
            return x
    raise InfeasibleError("feasible-set projection did not converge; check bounds")


def qp_reference(community, gamma, max_iterations=20000):
    """Reference optimum for an arbitrary gamma matrix.

    Variables are nonnegative producer-to-consumer MW; producer/consumer net
    bounds become row/column sum boxes. Projected gradient with spectral
    (Barzilai-Borwein) step lengths and a monotone Armijo safeguard; the
    certificate is the prox-gradient residual at the fixed step 1/L, reported
    in €/MW.
    """
    check_feasible(community)
    producers = [i for i, ag in enumerate(community.agents) if ag.role == PRODUCER]
    consumers = [i for i, ag in enumerate(community.agents) if ag.role != PRODUCER]
    gamma = np.asarray(gamma, dtype=float)
    mask = community.partner_mask()
    a_p = community.a[producers]
    b_p = community.b[producers]
    a_c = community.a[consumers]
    b_c = community.b[consumers]
    wedge = gamma[np.ix_(producers, consumers)] - gamma[np.ix_(consumers, producers)].T
    allowed = mask[np.ix_(producers, consumers)]
    row_lo, row_hi = community.p_min[producers], community.p_max[producers]
    col_lo, col_hi = -community.p_max[consumers], -community.p_min[consumers]

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

    def project(v):
        return _project_feasible(np.where(allowed, v, 0.0),
                                 row_lo, row_hi, col_lo, col_hi)

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
    trades = np.where(mask, trades, 0.0)
    net = trades.sum(axis=1)
    return OracleResult(clearing_price=None, net_powers=net, trades=trades,
                        social_welfare=social_welfare(community, net),
                        stationarity=stationarity,
                        objective_history=np.asarray(history))
