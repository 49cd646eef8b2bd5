"""Consensus-based negotiation engine for bilateral electricity trades.

Agents repeatedly exchange price signals with the agents they may trade with
while a coordinator keeps a skew-symmetric copy of the trades. Every trade
clears at one price shared by both sides; the grid fee is added on top of
it. One iteration advances, in order: bilateral prices, bound multipliers,
trade quantities, coordinator copy. The loop stops when all of these hold:

* agents agree with the coordinator within ``eps_primal``;
* every proposal is stationary within ``eps_price``: at a traded pair the
  agent's marginal cost plus fee and bound multipliers meets the pair's
  price, and at a zero trade the price lies on the side where the agent
  would not trade;
* wherever a bound multiplier is positive, that bound is tight within
  ``eps_primal``.

The last two are the first-order optimality conditions of the market, so a
run flagged converged is at the market optimum up to the tolerances, not
merely at a point where the updates have become small.

The state lives on the community's edge list, one entry per partnered
ordered pair; trades, proposals and prices become N x N matrices at the end.

All per-agent updates within one iteration read only the frozen previous
state (prices and multipliers advance first and are then visible to the
trade step), so the sweep order never affects the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .community import check_feasible, validate_gamma
from .errors import ValidationError

ACTIVE_TRADE_TOL = 1e-6  # MW below which a trade counts as zero in KKT checks


@dataclass(frozen=True)
class SolverConfig:
    """Gains and stopping rules for the negotiation loop.

    The price gain decays as alpha0*k^-alpha_decay. rho steps the bound
    multipliers. tau and delta set the exploration term of the per-partner
    gradient weights: each partner of agent n gets tau*k^-delta*(1 + sum_m
    |Z_nm|) on top of its own |Z_nm|, so a partner with no volume keeps a
    share that does not shrink as agent n trades more elsewhere. eps_price
    bounds the stationarity of the proposals (€/MW); eps_primal bounds the
    agent-coordinator disagreement and the slack of every bound whose
    multiplier is positive (MW).
    """

    alpha0: float = 0.01
    alpha_decay: float = 0.05
    rho: float = 0.01
    tau: float = 1.0
    delta: float = 0.5
    max_iterations: int = 20000
    eps_price: float = 1e-3   # €/MW
    eps_primal: float = 1e-2  # MW

    def __post_init__(self):
        for name in ("alpha0", "rho", "tau", "delta", "eps_price", "eps_primal"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"solver parameter {name} must be positive")
        if self.alpha_decay < 0:
            raise ValidationError("solver parameter alpha_decay must be nonnegative")
        if self.max_iterations < 1:
            raise ValidationError("max_iterations must be at least 1")


@dataclass
class MarketState:
    """Mutable negotiation state at iteration ``k``.

    ``P`` (the agents' proposals), ``Z`` (the coordinator's skew-symmetric
    copy) and ``y`` (the bilateral prices) hold one entry per partnered pair
    in the community's pair order, so ``P[community.rev]`` is the transpose.
    ``mu_hi`` and ``mu_lo`` are per agent.
    """

    community: object
    k: int = 1
    P: np.ndarray = field(default=None)
    Z: np.ndarray = field(default=None)
    y: np.ndarray = field(default=None)
    mu_hi: np.ndarray = field(default=None)
    mu_lo: np.ndarray = field(default=None)

    @classmethod
    def initial(cls, community):
        n = len(community.agents)
        pairs = len(community.src)
        return cls(community=community, k=1, P=np.zeros(pairs), Z=np.zeros(pairs),
                   y=np.full(pairs, float(np.mean(community.b))),
                   mu_hi=np.zeros(n), mu_lo=np.zeros(n))


@dataclass(frozen=True)
class ClearingResult:
    """Outcome of a negotiation run.

    ``trades`` holds the volume both sides of each pair accept: the smaller
    of the two opposite proposals, zero where one side proposes nothing. It
    is skew-symmetric by construction, so the delivered dispatch balances
    exactly. ``proposals`` keeps the agents' own final positions; at
    convergence the two differ by at most ``2 * eps_primal`` entrywise.
    ``kkt_residual`` is the worst stationarity violation of the proposals
    over all partnered pairs (€/MW); bound complementarity is enforced by
    the stop rule and is not part of it.
    """

    trades: np.ndarray
    proposals: np.ndarray
    prices: np.ndarray
    net_powers: np.ndarray
    mu_hi: np.ndarray
    mu_lo: np.ndarray
    iterations: int
    converged: bool
    primal_residuals: np.ndarray
    kkt_residual: float


class _PairTerms(NamedTuple):
    """Per-pair constants of one market, gathered once per ``clear_market``
    call: the pair's fee and its side's cost coefficients and trade sign."""

    gamma: np.ndarray
    a: np.ndarray
    b: np.ndarray
    sign: np.ndarray
    seller: np.ndarray

    @classmethod
    def gather(cls, community, gamma):
        src = community.src
        sign = community.sign[src]
        return cls(gamma[src, community.dst], community.a[src], community.b[src],
                   sign, sign > 0)


def _price_step(state, config):
    """Innovation step on the one price of every pair: y - alpha_k (P + P^T)/2,
    the excess of the two opposite proposals. It equals P - Z while Z is the
    coordinator copy of P, and the sum commutes, so y stays symmetric bit for
    bit from its symmetric start."""
    alpha = config.alpha0 * state.k ** (-config.alpha_decay)
    return state.y - (0.5 * alpha) * (state.P + state.P[state.community.rev])


def _row_sums(community, values):
    """Per-agent sums of per-pair values."""
    return np.bincount(community.src, weights=values, minlength=len(community.agents))


def _bound_vectors(state, config, z_row):
    """Bound multipliers from the per-agent sums ``z_row`` of Z."""
    community = state.community
    mu_hi = np.maximum(0.0, state.mu_hi + config.rho * (z_row - community.p_max))
    mu_lo = np.maximum(0.0, state.mu_lo + config.rho * (community.p_min - z_row))
    return mu_hi, mu_lo


def _pair_weights(state, config):
    community = state.community
    volume = np.abs(state.Z)
    # scaled with the agent's own volume, so a partner it does not trade with
    # keeps a share while the agent trades elsewhere and that pair can heal
    explore = config.tau * state.k ** (-config.delta) * (1.0 + _row_sums(community, volume))
    raw = volume + explore[community.src]
    return raw / _row_sums(community, raw)[community.src]


def _trade_step(state, config, pairs, z_row):
    """Per-pair gradient step toward each agent's preferred total, projected
    onto the role's trade sign. Expects prices and multipliers already
    advanced to k+1 while Z and its per-agent sums ``z_row`` still hold the
    k-iterate. Also returns the per-pair targets, from which the stop rule
    judges stationarity."""
    src = state.community.src
    weights = _pair_weights(state, config)
    target = (state.y - pairs.gamma - state.mu_hi[src] + state.mu_lo[src]
              - pairs.b) / pairs.a
    candidate = state.Z + weights * (target - z_row[src])
    projected = np.where(pairs.seller, np.maximum(0.0, candidate), np.minimum(0.0, candidate))
    return projected, target


def _coordinator_step(P, rev):
    """Skew-symmetric reconciliation of both sides of every trade."""
    return 0.5 * (P - P[rev])


def _accepted_trades(P, rev):
    """Volume both sides of each pair accept: the smaller of the two opposite
    proposals, zero where they do not face each other."""
    opposite = P[rev]
    facing = P * opposite < 0.0
    return np.where(facing, np.sign(P) * np.minimum(np.abs(P), np.abs(opposite)), 0.0)


def _on_grid(values, community):
    """Scatter per-pair values into an N x N matrix, zero off the pairs."""
    grid = np.zeros((len(community.agents),) * 2)
    grid[community.src, community.dst] = values
    return grid


def clear_market(community, gamma=None, config=None):
    """Run the negotiation to equilibrium.

    Non-convergence is reported through the ``converged`` flag with the full
    primal residual history, never as an exception; aggregate bounds that
    admit no balanced dispatch raise InfeasibleError.
    """
    config = config if config is not None else SolverConfig()
    gamma = validate_gamma(community, gamma)
    check_feasible(community)
    pairs = _PairTerms.gather(community, gamma)

    state = MarketState.initial(community)
    z_row = _row_sums(community, state.Z)
    primal_hist = []
    converged = False
    while state.k <= config.max_iterations:
        state.y = _price_step(state, config)
        state.mu_hi, state.mu_lo = _bound_vectors(state, config, z_row)
        state.P, target = _trade_step(state, config, pairs, z_row)
        state.Z = _coordinator_step(state.P, community.rev)
        z_row = _row_sums(community, state.Z)
        primal_hist.append(float(np.abs(state.P - state.Z).max(initial=0.0)))
        if (primal_hist[-1] <= config.eps_primal
                and _optimal(state, target, pairs, config, z_row)):
            converged = True
            break
        state.k += 1

    trades = _on_grid(_accepted_trades(state.P, community.rev), community)
    residual = _kkt_max(state.P, state.y, state.mu_hi, state.mu_lo, community, pairs.gamma)
    return ClearingResult(
        trades=trades, proposals=_on_grid(state.P, community),
        prices=_on_grid(state.y, community), net_powers=trades.sum(axis=1),
        mu_hi=state.mu_hi, mu_lo=state.mu_lo,
        iterations=min(state.k, config.max_iterations), converged=converged,
        primal_residuals=np.asarray(primal_hist), kkt_residual=residual)


def _optimal(state, target, pairs, config, z_row):
    """Stationarity of the proposals within eps_price and, wherever a bound
    multiplier is positive, that bound tight within eps_primal."""
    community = state.community
    p_row = _row_sums(community, state.P)
    expr = pairs.a * (p_row[community.src] - target)
    if _stationarity_max(state.P, expr, pairs.sign) > config.eps_price:
        return False
    slack = np.concatenate((z_row - community.p_max, community.p_min - z_row))
    bound = np.concatenate((state.mu_hi, state.mu_lo)) > 0.0
    return not bound.any() or np.abs(slack[bound]).max() <= config.eps_primal


def _kkt_max(proposals, prices, mu_hi, mu_lo, community, gamma):
    src = community.src
    marginal = community.a * _row_sums(community, proposals) + community.b
    expr = marginal[src] - prices + gamma + mu_hi[src] - mu_lo[src]
    return _stationarity_max(proposals, expr, community.sign[src])


def _stationarity_max(proposals, expr, sign):
    """Stationarity is judged on each agent's own proposals: the sign
    multiplier is active exactly where the agent's projection clipped."""
    # At a traded pair the expression must vanish. At a zero trade it is
    # absorbed by the sign multiplier, which exists on one side only:
    # producers need expr >= 0 and consumers expr <= 0, so sign * expr >= 0.
    oriented = sign * expr
    worst = (-oriented).max(initial=0.0)
    active = np.abs(proposals) > ACTIVE_TRADE_TOL
    return float(oriented[active].max(initial=worst)) + 0.0  # turns -0.0 into 0.0


def kkt_residual(result, community, gamma=None):
    """Worst stationarity violation of the proposals across all partnered
    pairs, in €/MW. Bound complementarity is not included; the stop rule of
    ``clear_market`` checks it separately."""
    pairs = (community.src, community.dst)
    gamma = 0.0 if gamma is None else np.asarray(gamma, dtype=float)[pairs]
    return _kkt_max(result.proposals[pairs], result.prices[pairs], result.mu_hi,
                    result.mu_lo, community, gamma)
