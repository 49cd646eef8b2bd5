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
* every bound holds within ``eps_primal``, both for the coordinator copy and
  for the net powers of the accepted trades, and wherever its multiplier is
  positive it is tight within ``eps_primal``.

The last two are the first-order optimality conditions of the market, so a
run flagged converged is at the market optimum up to the tolerances, not
merely at a point where the updates have become small.

The state lives on the community's edge list, one entry per partnered
ordered pair; trades, proposals and prices become N x N matrices at the end.
The per-pair constants are gathered once per market (``_PairTerms``). The
coordinator step gathers the opposite proposals once and returns both the
copy Z and the pair excess P + P^T, which the next price step reads. The
trade step's numerator q serves the stop check too, so stationarity has one
formula.

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
    """Stopping rules for the negotiation loop.

    No gain is a setting: pair (n, m) steps its price by h = 2 a_n a_m /
    (a_n + a_m) times its excess (P_nm + P_mn)/2. The sides respond by 1/a_n
    and 1/a_m MW per €/MW, so the excess moves by 1/h: a Newton step. Agent
    n's bound multipliers step by a_n. Both scale with the cost unit, so no
    result depends on it. The trade step moves only a weighted share of each
    response, so larger gains overshoot: on acceptance 7's 200 communities
    (3,850 iterations in all) a price gain of 2h stalls 13 at the cap and
    0.5h none (6,373 iterations); a bound gain of 4 a_n stalls 11, 2 a_n none.

    Nor is the exploration share of the trade step: each partner of agent n
    gets 1 + sum_m |Z_nm| MW on top of its own |Z_nm| (see
    ``_pair_weights``), whatever the iteration. eps_price bounds the
    stationarity of the proposals (€/MW); eps_primal bounds the
    agent-coordinator disagreement, the excess over every bound and the
    slack of every bound whose multiplier is positive (MW).
    """

    max_iterations: int = 20000
    eps_price: float = 1e-3   # €/MW
    eps_primal: float = 1e-2  # MW

    def __post_init__(self):
        for name in ("eps_price", "eps_primal"):
            if not 0.0 < getattr(self, name) < float("inf"):  # also rejects NaN
                raise ValidationError(f"solver parameter {name} must be positive and finite")
        if not isinstance(self.max_iterations, int) or self.max_iterations < 1:
            raise ValidationError("max_iterations must be a whole number of at least 1")


@dataclass
class MarketState:
    """Mutable negotiation state.

    ``P`` (the agents' proposals), ``Z`` (the coordinator's skew-symmetric
    copy) and ``y`` (the bilateral prices) hold one entry per partnered pair
    in the community's pair order, so ``P[community.rev]`` is the transpose.
    ``mu_hi`` and ``mu_lo`` are per agent.
    """

    community: object
    P: np.ndarray = field(default=None)
    Z: np.ndarray = field(default=None)
    y: np.ndarray = field(default=None)
    mu_hi: np.ndarray = field(default=None)
    mu_lo: np.ndarray = field(default=None)

    @classmethod
    def initial(cls, community):
        n = len(community.agents)
        pairs = len(community.src)
        return cls(community=community, P=np.zeros(pairs), Z=np.zeros(pairs),
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
    call: the fee, the side's cost coefficients and sign, the sign box
    ``[lo, hi]`` of its proposals (``[0, inf)`` for a seller, ``(-inf, 0]``
    for a buyer) and half the price gain, the factor the price step applies
    to the pair excess."""

    gamma: np.ndarray
    a: np.ndarray
    b: np.ndarray
    sign: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    half_gain: np.ndarray

    @classmethod
    def gather(cls, community, gamma):
        src, dst = community.src, community.dst
        a, other = community.a[src], community.a[dst]
        sign = community.sign[src]
        seller = sign > 0
        # a*other and a+other commute, so both sides of a pair get the same
        # gain; halving 2 a other / (a + other) is exact, so this is h / 2
        return cls(gamma[src, dst], a, community.b[src], sign,
                   np.where(seller, 0.0, -np.inf), np.where(seller, np.inf, 0.0),
                   a * other / (a + other))


def _price_step(state, pairs, excess):
    """Newton step on the one price of every pair: y - h (P + P^T)/2, the
    excess of the two opposite proposals times the pair's gain. The excess
    comes from the coordinator step that built Z from the same proposals,
    so it equals P - Z while Z is the coordinator copy of P. The sum
    commutes, so y stays symmetric bit for bit from its symmetric start."""
    return state.y - pairs.half_gain * excess


def _row_sums(community, values):
    """Per-agent sums of per-pair values."""
    return np.bincount(community.src, weights=values, minlength=len(community.agents))


def _bound_vectors(state, z_row):
    """Bound multipliers from the per-agent sums ``z_row`` of Z, each agent
    stepping by its own curvature a."""
    community = state.community
    mu_hi = np.maximum(0.0, state.mu_hi + community.a * (z_row - community.p_max))
    mu_lo = np.maximum(0.0, state.mu_lo + community.a * (community.p_min - z_row))
    return mu_hi, mu_lo


def _pair_weights(state):
    """Share of agent n's adjustment given to each of its pairs: the pair's
    own volume |Z_nm| plus an exploration share 1 + sum_m |Z_nm| MW, so a
    partner it does not trade with keeps a share while the agent trades
    elsewhere and that pair can heal. Costs and bounds are exact, so there
    is no noise to average out and the share does not decay with the
    iteration count: the step depends on the negotiation state alone."""
    community = state.community
    volume = np.abs(state.Z)
    explore = 1.0 + _row_sums(community, volume)
    raw = volume + explore[community.src]
    return raw / _row_sums(community, raw)[community.src]


def _target_marginal(prices, mu_hi, mu_lo, community, pairs):
    """Per pair, q = y - gamma - mu_hi + mu_lo - b: the value the agent's
    marginal cost above b, a times its total, takes where the pair is
    stationary. The trade step aims the agent at the total q / a, and the
    stationarity of a proposal is a * total - q."""
    src = community.src
    return prices - pairs.gamma - mu_hi[src] + mu_lo[src] - pairs.b


def _trade_step(state, pairs, z_row, q):
    """Per-pair gradient step toward each agent's preferred total q / a,
    projected onto the role's trade sign. Expects prices and multipliers
    already advanced to the next iterate, and ``q`` built from them, while Z
    and its per-agent sums ``z_row`` still hold the current one."""
    weights = _pair_weights(state)
    candidate = state.Z + weights * (q / pairs.a - z_row[state.community.src])
    # bound first, candidate second: numpy returns the second operand of a
    # tie, so a zero candidate keeps its sign bit
    return np.minimum(pairs.hi, np.maximum(pairs.lo, candidate))


def _coordinator_step(P, rev):
    """Skew-symmetric reconciliation of both sides of every trade, plus the
    pair excess P + P^T that the next price step reads; one gather of the
    opposite proposals serves both."""
    opposite = P[rev]
    return 0.5 * (P - opposite), P + opposite


def _accepted_trades(P, rev):
    """Volume both sides of each pair accept: the smaller of the two opposite
    proposals, zero where they do not face each other."""
    opposite = P[rev]
    facing = P * opposite < 0.0
    return np.where(facing, np.sign(P) * np.minimum(np.abs(P), np.abs(opposite)), 0.0)


def _settled(P, community):
    """Accepted trades as an N x N matrix and the net power of each agent."""
    trades = _on_grid(_accepted_trades(P, community.rev), community)
    return trades, trades.sum(axis=1)


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
    excess = np.zeros_like(state.P)  # P + P^T of the all-zero start
    primal_hist = []
    converged = False
    for iterations in range(1, config.max_iterations + 1):
        state.y = _price_step(state, pairs, excess)
        state.mu_hi, state.mu_lo = _bound_vectors(state, z_row)
        q = _target_marginal(state.y, state.mu_hi, state.mu_lo, community, pairs)
        state.P = _trade_step(state, pairs, z_row, q)
        state.Z, excess = _coordinator_step(state.P, community.rev)
        z_row = _row_sums(community, state.Z)
        primal_hist.append(float(np.abs(state.P - state.Z).max(initial=0.0)))
        if (primal_hist[-1] <= config.eps_primal
                and _optimal(state, pairs, config, z_row, q)):
            converged = True
            break

    trades, net_powers = _settled(state.P, community)
    return ClearingResult(
        trades=trades, proposals=_on_grid(state.P, community),
        prices=_on_grid(state.y, community), net_powers=net_powers,
        mu_hi=state.mu_hi, mu_lo=state.mu_lo,
        iterations=iterations, converged=converged,
        primal_residuals=np.asarray(primal_hist),
        kkt_residual=_kkt_max(state.P, q, community, pairs))


def _optimal(state, pairs, config, z_row, q):
    """Stationarity of the proposals within eps_price; every bound held
    within eps_primal, by the row sums of Z and by the net powers of the
    accepted trades that the result reports; and, wherever a bound
    multiplier is positive, that bound tight within eps_primal. ``q`` is the
    trade step's, built from the same prices and multipliers."""
    community = state.community
    if _kkt_max(state.P, q, community, pairs) > config.eps_price:
        return False
    slack = _bound_slack(community, z_row)
    bound = np.concatenate((state.mu_hi, state.mu_lo)) > 0.0
    # accepted trades take the smaller side of each pair, so their net
    # powers can sit outside a bound that Z's row sums hold
    return (slack.max() <= config.eps_primal
            and (-slack[bound]).max(initial=0.0) <= config.eps_primal
            and _bound_slack(community, _settled(state.P, community)[1]).max()
            <= config.eps_primal)


def _bound_slack(community, totals):
    """Per-agent excess over the upper bounds, then under the lower ones."""
    return np.concatenate((totals - community.p_max, community.p_min - totals))


def _kkt_max(proposals, q, community, pairs):
    """Worst stationarity violation a * total - q over the pairs."""
    stationarity = (community.a * _row_sums(community, proposals))[community.src] - q
    return _stationarity_max(proposals, stationarity, pairs.sign)


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
    pairs = _PairTerms.gather(community, validate_gamma(community, gamma))
    at = (community.src, community.dst)
    q = _target_marginal(result.prices[at], result.mu_hi, result.mu_lo, community, pairs)
    return _kkt_max(result.proposals[at], q, community, pairs)
