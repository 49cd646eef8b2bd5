"""Consensus ADMM negotiation engine for bilateral electricity trades.

Agents repeatedly exchange price signals with the agents they may trade with
while a coordinator keeps a skew-symmetric copy of the trades. Every trade
clears at one price shared by both sides; the grid fee is added on top of
it. This is the consensus ADMM of Sorin, Bobo and Pinson (IEEE TPWRS 2019).
One iteration advances, in order:

* each agent's exact local step: it minimises its cost, plus the fees,
  minus the prices, plus rho/2 (P_nm - Z_nm)^2 per pair, over proposals in
  the sign box of its role whose total stays within its bounds. The
  solution has one unknown, the agent's marginal lambda_n: each proposal
  is the sign-box projection of Z_nm + (y_nm - gamma_nm - lambda_n) /
  rho_nm, and lambda_n makes them sum to clip((lambda_n - b_n) / a_n,
  p_min, p_max), a monotone piecewise-linear root found by semismooth
  Newton (``_local_step``);
* the coordinator copy Z = (P - P^T)/2, per partnership;
* the polish below, tried only when the set of pairs that trade has
  changed since its last try;
* the stop check below; the last iteration the cap allows ends here, so a
  capped run, like a converged one, reports the prices its proposals
  answered;
* bilateral prices, y <- y - rho/2 (P + P^T), where rho = s h per pair and
  h = 2 a_n a_m / (a_n + a_m) is the pair's Newton gain;
* the penalty scale s, doubled or halved by residual balancing (Boyd et
  al. 2011, section 3.4.1) while the agents still disagree with the
  coordinator.

The loop stops when all of these hold:

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
merely at a point where the updates have become small. The bound
multipliers follow from lambda: how far it lies beyond the marginal cost at
a bound, where the agent's total sits at that bound, and zero elsewhere.
Every local step is exact, so an agent's marginal cost plus its bound
multipliers is its lambda_n, and the stationarity a p + b + mu - (y -
gamma) of pair n->m is lambda_n - (y_nm - gamma_nm) (``_kkt_max``). The
stop check and the result's ``kkt_residual`` both read it in that form.

The polish finishes the run exactly once the engine has found which pairs
trade, as OSQP's solution polishing does (Stellato et al., Math. Prog.
Comp. 12, 2020, section 5.2). At the optimum every pair that trades has
lambda_c - lambda_s = gamma_sc - gamma_cs between its buyer c and seller s,
and no pair more. So a maximum spanning forest of the trading pairs by
volume fixes the lambda differences, each component's one free lambda
balances its totals exactly, and an agent that trades nothing sits at zero
with lambda = b. If no pair then exceeds its wedge and a transport flow on
the pairs that meet it gives every agent its total, the point satisfies the
optimality conditions up to rounding (``_polish``); the cheapest tests run
first. An agent forced to trade with no trading pair fails them, so the
run's first try, at iteration 1, completes the set as an active-set step
does (Hintermüller, Ito and Kunisch, SIAM J. Optim. 13(3), 2002): each
such agent gets its partnership of least slack wedge - (lambda_c -
lambda_s) at the engine's marginals, and the same tests then judge the
point. Later tries take the set as it is; completing each of them cost
more failed flows than it saved.
A polished result reports that flow as its trades and proposals, the
polished lambda, and the engine's prices clipped into [lambda_c + gamma_cs,
lambda_s + gamma_sc], the range in which both sides are stationary. Where
the optimal split is not unique, as under a free market or a uniform fee,
the flow is the vertex ``community._transport`` finds, which depends only
on the totals, the pairs that meet their wedge and the pair-list order. The
stop check remains for runs the polish cannot finish; ``ClearingResult.stop``
says which ended the run.

The negotiation opens at the free-market clearing price of the whole
community, with every agent's best response to it split evenly over its
partners and made reciprocal (``_opening``).

The state is ``clear_market``'s own locals on the community's pair list:
the proposals P, one per side of each partnership, whose halves (the
seller sides, then the buyer sides) are each other's transpose; the
coordinator copy Z, as its seller side, and the prices y, one per
partnership; each agent's marginal lambda, which warm-starts its next
local step; and the penalty scale s. The stop check reads the accepted
trades and their net powers on the same list; the result's are built once,
at return, where trades, proposals and prices become N x N matrices. The
per-pair and per-agent constants are gathered once per market
(``_PairTerms``, ``_LocalTerms``). All per-agent updates within one
iteration read only the frozen previous state, so the sweep order never
affects the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .community import _transport, check_feasible, validate_gamma
from .errors import ValidationError

ACTIVE_TRADE_TOL = 1e-6  # MW below which a trade counts as zero in KKT checks
ROOT_TOL = 1e-9          # MW by which an agent's proposals may miss its total
NEWTON_STEPS = 8         # per local step; a bracketed bisection takes over after
BISECTION_STEPS = 200    # halvings at most; it stops once every miss is within ROOT_TOL
BALANCE_RATIO = 10.0     # residual balancing acts when one residual exceeds the other this much
SCALE_LIMIT = 2.0 ** 40  # the penalty scale s stays within [1/limit, limit]
TIGHT_RTOL = 1e-12       # price slack of a tight pair, relative to the market's prices


@dataclass(frozen=True)
class SolverConfig:
    """Stopping rules for the negotiation loop.

    No step size is a setting: each pair's penalty is rho = s h with h = 2
    a_n a_m / (a_n + a_m), the gain at which the price step is a Newton
    step on the pair's excess, and the scale s starts at 1 and follows the
    residuals. Each local step is solved exactly. Penalties, prices and
    marginals all scale with the cost unit, so no result depends on it.
    eps_price bounds the stationarity of the proposals (€/MW); eps_primal
    bounds the agent-coordinator disagreement, the excess over every bound
    and the slack of every bound whose multiplier is positive (MW).
    """

    max_iterations: int = 20000
    eps_price: float = 1e-3   # €/MW
    eps_primal: float = 1e-2  # MW

    def __post_init__(self):
        for name in ("eps_price", "eps_primal"):
            if not 0.0 < getattr(self, name) < float("inf"):  # also rejects NaN
                raise ValidationError(f"solver parameter {name} must be positive and finite")
        if (not isinstance(self.max_iterations, (int, np.integer))
                or isinstance(self.max_iterations, bool) or self.max_iterations < 1):
            raise ValidationError("max_iterations must be a whole number of at least 1")


def _opening(community, local):
    """The opening Z, y and marginals. Every partnership is priced at the
    free-market clearing price of the whole community, the price at which
    the agents' best responses balance when fees and partnership lists are
    ignored. Each agent's best response, split evenly over its partners, is
    made reciprocal, P = Z = (B - B^T)/2, so the opening excess is zero.
    Each marginal starts at the agent's own b."""
    price = float(_balancing_price(local)[0])
    best = np.minimum(local.total_hi, np.maximum(
        local.total_lo, (price - community.b) * local.inv_a))
    share = best / np.maximum(community.partner_count, 1)
    Z = 0.5 * (share[community.seller] - share[community.buyer])
    return Z, np.full(len(Z), price), community.b.copy()


def _balancing_price(local, members=slice(None), group=None, offset=0.0):
    """Per group of the members, the price y at which their totals
    clip((y + offset - b)/a, lo, hi) sum to zero; ``group`` labels the
    members 0, 1, ..., and by default they form one group. A group's sum
    rises piecewise linearly between the marginal costs at its agents'
    bounds, so the root is exact from those kinks sorted; where the sum
    cannot reach zero, the nearest kink."""
    inv_a = local.inv_a[members]
    if group is None:
        group = np.zeros(len(inv_a), dtype=np.intp)
    kinks = np.concatenate((local.marginal_lo[members] - offset,
                            local.marginal_hi[members] - offset))
    order = np.lexsort((kinks, np.concatenate((group, group))))
    at = kinks[order]
    count = 2 * np.bincount(group)
    end = count.cumsum() - 1
    start = end + 1 - count
    # a group's slope falls back to zero after its last kink, up to rounding
    slope = np.concatenate((inv_a, -inv_a))[order].cumsum()
    # the sum at each kink, less its value sum(lo) below the group's first
    piece = slope[:-1] * (at[1:] - at[:-1])
    piece[end[:-1]] = 0.0
    rise = np.concatenate(([0.0], piece.cumsum()))
    base = rise[start]
    short = base - np.bincount(group, local.total_lo[members])
    below = rise < np.repeat(short, count)
    below[start] = False
    # the root lies between kinks k and k + 1, where the slope is slope[k]
    k = start + np.add.reduceat(below, start, dtype=np.intp)
    inner = np.minimum(k, end - 1)
    return np.where(k < end, at[inner] + (short - rise[inner]) / slope[inner], at[end])


@dataclass(frozen=True)
class ClearingResult:
    """Outcome of a negotiation run.

    ``trades`` holds the volume both sides of each pair accept: the smaller
    of the two opposite proposals, zero where one side proposes nothing. It
    is skew-symmetric by construction, so the delivered dispatch balances
    exactly. ``proposals`` keeps the agents' own final positions; at
    convergence the two differ by at most ``2 * eps_primal`` entrywise.
    ``marginals`` holds each agent's lambda from its last local step, its
    marginal cost plus bound multipliers; the multipliers are how far lambda
    lies beyond the marginal cost at either bound. ``prices`` are the ones
    the proposals answered, also at the iteration cap. ``kkt_residual`` is
    the worst stationarity violation of the proposals over all partnered
    pairs (€/MW); bound complementarity is enforced by the stop rule and is
    not part of it. ``stop`` says why the run ended: ``"polished"`` at an
    exact optimum (``_polish``), ``"converged"`` by the stop rule, or
    ``"cap"`` at ``max_iterations``. A polished result's proposals are its
    trades, its marginals the polished lambda, and the last of its
    ``primal_residuals`` is the polished point's, 0.
    """

    trades: np.ndarray
    proposals: np.ndarray
    prices: np.ndarray
    net_powers: np.ndarray
    marginals: np.ndarray
    iterations: int
    converged: bool
    primal_residuals: np.ndarray
    kkt_residual: float
    stop: str


class _PairTerms(NamedTuple):
    """Per-pair constants of one market, gathered once per ``clear_market``
    call: per side, the fee; per partnership, the Newton gain h and the
    wedge gamma_sc - gamma_cs; and the price slack of a tight partnership
    in the polish, a fixed fraction of the market's largest marginal cost
    or fee, so that it scales with the cost unit."""

    gamma: np.ndarray
    gain: np.ndarray
    wedge: np.ndarray
    tol: float

    @classmethod
    def gather(cls, community, gamma, local):
        k = len(community.seller)
        fees = gamma[community.src, community.dst]
        a, other = community.a[community.seller], community.a[community.buyer]
        scale = np.abs(np.concatenate((local.marginal_lo, local.marginal_hi, fees))).max()
        return cls(fees, 2.0 * a * other / (a + other),
                   fees[:k] - fees[k:], TIGHT_RTOL * float(scale))


class _LocalTerms(NamedTuple):
    """The terms of the local step, one per partnered pair and then one per
    agent. At marginals lam, agent n's miss is the sum over its terms of
    clip((t - lam[n]) / rho, lo, hi), which falls as lam[n] rises. A pair's
    term is its proposal: t = rho Z + y - gamma, and the sign box of the
    role, [0, inf) for a seller and (-inf, 0] for a buyer. The agent's own
    term has t = b, rho = a and the box [-p_max, -p_min]: minus its total
    clip((lam - b)/a, p_min, p_max). An agent without partners cannot
    trade, so the box of its total is [0, 0]. Also kept per agent: 1/a,
    the box of its total with the marginal costs at both ends, and whether
    it is forced to trade, unable to sit at zero."""

    src: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    inv_a: np.ndarray
    total_lo: np.ndarray
    total_hi: np.ndarray
    marginal_lo: np.ndarray
    marginal_hi: np.ndarray
    forced: np.ndarray

    @classmethod
    def gather(cls, community):
        k, n = len(community.seller), len(community.agents)
        partnered = community.partner_count > 0
        total_lo = np.where(partnered, community.p_min, 0.0)
        total_hi = np.where(partnered, community.p_max, 0.0)
        inv_a = 1.0 / community.a
        # the seller sides come first: their box is [0, inf), the buyers' (-inf, 0]
        return cls(np.concatenate((community.src, np.arange(n))),
                   np.concatenate((np.zeros(k), np.full(k, -np.inf), -total_hi)),
                   np.concatenate((np.full(k, np.inf), np.zeros(k), -total_lo)),
                   inv_a, total_lo, total_hi,
                   community.a * total_lo + community.b, community.a * total_hi + community.b,
                   (total_lo > 0.0) | (total_hi < 0.0))


def _forest(n, ends, wedge):
    """A maximum spanning forest of the edges ends[0] -> ends[1], listed
    heaviest first, by Boruvka's rounds: every component hooks onto the
    component at the other end of its heaviest leaving edge, and of two
    that pick one edge the smaller label stays the root. Returns each
    node's component label and its offset from the component's root, with
    offset[head] - offset[tail] = wedge along every forest edge; each hook
    carries its shift through the pointer jumping."""
    label = np.arange(n)
    offset = np.zeros(n)
    none = len(wedge)
    while True:
        at = label[ends]
        leaving = (at[0] != at[1]).nonzero()[0]
        if not len(leaving):
            return label, offset
        # ranks are distinct, so a component's smallest is its heaviest edge
        best = np.full(n, none)
        np.minimum.at(best, at[:, leaving].ravel(), np.concatenate((leaving, leaving)))
        comps = (best < none).nonzero()[0]
        edge = best[comps]
        hook = at[:, edge]
        other = hook[0] + hook[1] - comps
        gap = offset[ends[:, edge]]
        miss = gap[1] - gap[0] - wedge[edge]
        parent = np.arange(n)
        parent[comps] = other
        shift = np.zeros(n)
        shift[comps] = np.where(hook[0] == comps, miss, -miss)
        root = comps[(parent[other] == comps) & (comps < other)]
        parent[root] = root
        shift[root] = 0.0
        while True:
            up = parent[parent]
            if not np.count_nonzero(up != parent):
                break
            shift += shift[parent]
            parent = up
        offset += shift[label]
        label = parent[label]


def _polish(P, y, trading, community, local, pairs, guess=None):
    """The exact optimum on the pairs that trade, or None. Trading pairs
    fix the differences of the agents' lambda along a maximum spanning
    forest by volume, lambda_c - lambda_s = wedge; each component's one
    free lambda balances its totals exactly (``_balancing_price``), and an
    agent that trades nothing sits at zero with lambda = b. The point is
    the optimum when no pair has lambda_c - lambda_s above its wedge and a
    flow on the pairs where it is equal meets every total: those are the
    complementary-slackness conditions of a convex-cost flow (Ahuja,
    Magnanti and Orlin, Network Flows, 1993, ch. 9 and 14). The flow is the
    maximum flow of ``_transport`` with each agent capped at its total,
    accepted when every agent's total is met within ROOT_TOL. The cheap
    tests run first. Given marginals ``guess``, an agent forced to trade
    that has no trading pair first gets its partnership of least slack
    wedge - (lambda_c - lambda_s) at those marginals, the lightest edges of
    the forest; otherwise such an agent rejects the try. Returns the flow
    per pair, the price per partnership and lambda."""
    n = len(community.agents)
    # the seller and the buyer of every partnership
    ends = community.src.reshape(2, -1)
    chosen = trading.nonzero()[0]
    traded = np.zeros(n, dtype=bool)
    traded[ends[:, chosen]] = True
    missing = local.forced > traded
    if np.count_nonzero(missing):
        if guess is None:
            return None
        chosen = np.union1d(chosen, _least_slack(missing, guess, community, pairs))
        traded[ends[:, chosen]] = True
    sides = P.reshape(2, -1)[:, chosen]
    order = chosen[np.argsort(np.maximum(-sides[0], sides[1]), kind="stable")]
    label, offset = _forest(n, ends[:, order], pairs.wedge[order])
    members = traded.nonzero()[0]
    # components numbered 0, 1, ... in the order of their roots
    root = np.zeros(n, dtype=np.intp)
    root[label[members]] = 1
    group = (root.cumsum() - 1)[label[members]]
    lam = community.b.copy()
    if len(members):
        lam[members] = offset[members] + _balancing_price(local, members, group,
                                                          offset[members])[group]
    marginal = lam[ends]
    slack = pairs.wedge - (marginal[1] - marginal[0])
    if np.count_nonzero(slack < -pairs.tol):
        return None
    totals = np.minimum(local.total_hi, np.maximum(local.total_lo,
                                                   (lam - community.b) * local.inv_a))
    flow = _transport(community, (slack <= pairs.tol).nonzero()[0], np.abs(totals), ROOT_TOL)
    if np.abs(_row_sums(community, flow) - totals).max() > ROOT_TOL:
        return None
    # every price between the two sides' marginals plus fees leaves both
    # stationary; the engine's own, clipped into that range
    marginal += pairs.gamma.reshape(2, -1)
    return flow, np.minimum(marginal[0], np.maximum(marginal[1], y)), lam


def _least_slack(missing, lam, community, pairs):
    """For each agent in ``missing``, its partnership of least slack wedge -
    (lambda_c - lambda_s) at the marginals ``lam``; the first in the pair
    list on a tie."""
    k = len(community.seller)
    marginal = lam[community.src].reshape(2, -1)
    slack = pairs.wedge - (marginal[1] - marginal[0])
    # the sides of the missing agents, by agent and then by slack
    sides = missing[community.src].nonzero()[0]
    sides = sides[np.lexsort((slack[sides % k], community.src[sides]))]
    return sides[np.unique(community.src[sides], return_index=True)[1]] % k


def _row_sums(community, values):
    """Per-agent sums of per-pair values."""
    return np.bincount(community.src, weights=values, minlength=len(community.agents))


def _terms_at(lam, target, inv_rho, local):
    """Every term of the local step at the marginals ``lam``, before and
    after its box."""
    raw = (target - lam[local.src]) * inv_rho
    return raw, np.minimum(local.hi, np.maximum(local.lo, raw))


def _slope_floor(inv_rho):
    """Floor of the Newton slope, 1e-3 times the smallest 1/rho of any term:
    below every slope that is not zero, so it acts only where an agent sits
    on a flat piece of its miss, and there, with the miss at zero, leaves
    it in place."""
    return 1e-3 * float(inv_rho.min())


def _local_step(lam, target, inv_rho, floor, local):
    """Every agent's exact local step: the marginals at which its miss
    vanishes, by semismooth Newton from ``lam``, and its terms there. The
    miss is monotone and piecewise linear, so a Newton step is exact within
    one piece; a step can cycle between pieces, so after NEWTON_STEPS a
    bracketed bisection finishes."""
    n = len(lam)
    for _ in range(NEWTON_STEPS):
        raw, terms = _terms_at(lam, target, inv_rho, local)
        miss = np.bincount(local.src, terms, n)
        if miss.dot(miss) <= ROOT_TOL * ROOT_TOL:
            return lam, terms
        slope = np.bincount(local.src, inv_rho * (terms == raw), n)
        lam = lam + miss / np.maximum(slope, floor)
    return _bisect(lam, target, inv_rho, local)


def _bisect(lam, target, inv_rho, local):
    """Bracketed bisection on the marginals. Above every pair's t + rho
    |p_min| an agent's proposals cannot exceed its total, and below every
    t - rho |p_max| they cannot fall short of it; an agent already solved
    keeps its marginal."""
    n = len(lam)
    pairs = len(local.src) - n
    src, t, rho = local.src[:pairs], target[:pairs], 1.0 / inv_rho[:pairs]
    solved = np.abs(np.bincount(local.src, _terms_at(lam, target, inv_rho, local)[1], n))
    solved = solved <= ROOT_TOL
    low, high = lam.copy(), lam.copy()
    np.minimum.at(low, src, t - rho * np.abs(local.total_hi[src]))
    np.maximum.at(high, src, t + rho * np.abs(local.total_lo[src]))
    low[solved], high[solved] = lam[solved], lam[solved]
    for _ in range(BISECTION_STEPS):
        lam = 0.5 * (low + high)
        terms = _terms_at(lam, target, inv_rho, local)[1]
        miss = np.bincount(local.src, terms, n)
        if np.abs(miss).max(initial=0.0) <= ROOT_TOL:
            break
        low = np.where(miss > 0.0, lam, low)
        high = np.where(miss > 0.0, high, lam)
    return lam, terms


def _multipliers(lam, local):
    """Bound multipliers of the local step: how far lambda lies beyond the
    marginal cost at a bound, which is where the agent's total sits at
    that bound; zero elsewhere."""
    return np.maximum(lam - local.marginal_hi, 0.0), np.maximum(local.marginal_lo - lam, 0.0)


def _price_step(y, rho_half, excess):
    """The next price of every partnership, y - rho/2 (P + P^T), and the
    step itself."""
    push = rho_half * excess
    return y - push, push


def _coordinator_step(P):
    """Skew-symmetric reconciliation of both sides of every trade, as its
    seller side, and the excess P + P^T that the price step reads, per
    partnership: P holds the seller sides, then the buyer sides."""
    k = len(P) // 2
    seller, buyer = P[:k], P[k:]
    return 0.5 * (seller - buyer), seller + buyer


def _rebalanced(s, primal, dual):
    """Residual balancing on the squared norms, over the partnerships, of
    the primal residual h (P + P^T), the reciprocity gap in €/MW, and the
    dual residual rho (Z - Z_old): double the penalty scale while the
    primal one exceeds the dual one BALANCE_RATIO times, halve it in the
    reverse case. Powers of two keep every run independent of the cost
    unit bit for bit. The loop
    balances only while the agents disagree with the coordinator by more
    than eps_primal, so the penalty settles once they agree: ADMM with a
    varying penalty converges when the penalty is eventually fixed."""
    if primal > BALANCE_RATIO ** 2 * dual and s < SCALE_LIMIT:
        return 2.0 * s
    if dual > BALANCE_RATIO ** 2 * primal and s > 1.0 / SCALE_LIMIT:
        return 0.5 * s
    return s


def _accepted_trades(P):
    """Volume both sides of each pair accept: the smaller of the two opposite
    proposals, zero where they do not face each other."""
    k = len(P) // 2
    seller, buyer = P[:k], P[k:]
    volume = np.where(seller * buyer < 0.0, np.minimum(seller, -buyer), 0.0)
    return np.concatenate((volume, -volume))


def _on_grid(values, community):
    """Scatter per-pair values into an N x N matrix, zero off the pairs."""
    grid = np.zeros((len(community.agents),) * 2)
    grid[community.src, community.dst] = values
    return grid


def clear_market(community, gamma=None, config=None):
    """Run the negotiation to equilibrium.

    The run ends polished, converged by the stop rule or at the iteration
    cap, as ``ClearingResult.stop`` records. Non-convergence is reported
    through the ``converged`` flag with the full primal residual history,
    never as an exception; a market that ``check_feasible`` rejects raises
    InfeasibleError.
    """
    config = config if config is not None else SolverConfig()
    gamma = validate_gamma(community, gamma)
    check_feasible(community)
    local = _LocalTerms.gather(community)
    pairs = _PairTerms.gather(community, gamma, local)
    n_pairs, k = len(community.src), len(community.seller)
    # the pair part of these two changes every iteration and with s; the
    # agent part holds b and 1/a
    target = np.concatenate((np.zeros(n_pairs), community.b))
    inv_rho = np.concatenate((1.0 / pairs.gain, 1.0 / pairs.gain, local.inv_a))
    floor = _slope_floor(inv_rho)
    head, sold, bought = target[:n_pairs], target[:k], target[k:n_pairs]

    Z, y, lam = _opening(community, local)
    s, rho, rho_half = 1.0, pairs.gain, 0.5 * pairs.gain
    tried = None
    primal_hist = []
    for iterations in range(1, config.max_iterations + 1):
        Z_old = Z
        # rho Z + y - gamma on either side; the buyer side's Z is -Z
        move = rho * Z_old
        np.add(y, move, out=sold)
        np.subtract(y, move, out=bought)
        np.subtract(head, pairs.gamma, out=head)
        lam, terms = _local_step(lam, target, inv_rho, floor, local)
        P = terms[:n_pairs]
        Z, excess = _coordinator_step(P)
        # P - Z is half the pair excess
        primal_hist.append(0.5 * float(np.abs(excess).max(initial=0.0)))
        # the sign boxes make a partnership trade where both sides are
        # nonzero; the polish is tried whenever that set changes
        trading = P[:k] * P[k:] < 0.0
        key = trading.tobytes()
        if key != tried:
            tried = key
            # the first try also completes the trading set
            exact = _polish(P, y, trading, community, local, pairs,
                            lam if iterations == 1 else None)
            if exact is not None:
                flow, prices, lam = exact
                primal_hist[-1] = 0.0
                return _result(flow, flow, prices, lam, iterations, primal_hist,
                               community, pairs, "polished")
        converged = (primal_hist[-1] <= config.eps_primal
                     and _kkt_max(P, y, lam, community, pairs) <= config.eps_price
                     and _bounds_hold(P, Z, lam, community, local, config.eps_primal))
        if converged or iterations == config.max_iterations:
            break
        y, push = _price_step(y, rho_half, excess)
        if primal_hist[-1] > config.eps_primal:
            dual = rho * (Z - Z_old)
            # the primal residual h (P + P^T) is 2 push / s
            scale = _rebalanced(s, 4.0 * push.dot(push) / (s * s), dual.dot(dual))
            if scale != s:
                # powers of two: rho, rho/2 and 1/rho scale exactly
                s, rho = scale, scale * pairs.gain
                rho_half = 0.5 * rho
                inv_rho[:n_pairs] = np.concatenate((1.0 / rho, 1.0 / rho))
                floor = _slope_floor(inv_rho)

    return _result(_accepted_trades(P), P, y, lam, iterations, primal_hist,
                   community, pairs, "converged" if converged else "cap")


def _result(trades, proposals, prices, lam, iterations, primal_hist, community, pairs, stop):
    """The result of a run that ended with these per-pair arrays."""
    return ClearingResult(
        trades=_on_grid(trades, community), proposals=_on_grid(proposals, community),
        prices=_on_grid(np.concatenate((prices, prices)), community),
        net_powers=_row_sums(community, trades),
        marginals=lam, iterations=iterations, converged=stop != "cap",
        primal_residuals=np.asarray(primal_hist),
        kkt_residual=_kkt_max(proposals, prices, lam, community, pairs), stop=stop)


def _bounds_hold(P, Z, lam, community, local, eps_primal):
    """Every bound held within eps_primal, by the row sums of Z and by the
    net powers of the accepted trades that the result reports; and,
    wherever a bound multiplier is positive, that bound tight within
    eps_primal."""
    slack = _bound_slack(community, _row_sums(community, np.concatenate((Z, -Z))))
    bound = np.concatenate(_multipliers(lam, local)) > 0.0
    # accepted trades take the smaller side of each pair, so their net
    # powers can sit outside a bound that Z's row sums hold
    net = _row_sums(community, _accepted_trades(P))
    return bool(slack.max() <= eps_primal
                and (-slack[bound]).max(initial=0.0) <= eps_primal
                and _bound_slack(community, net).max() <= eps_primal)


def _bound_slack(community, totals):
    """Per-agent excess over the upper bounds, then under the lower ones."""
    return np.concatenate((totals - community.p_max, community.p_min - totals))


def _kkt_max(proposals, prices, lam, community, pairs):
    """Worst stationarity violation over the pairs, at one price per
    partnership. The local step is exact, so agent n's marginal cost plus
    bound multipliers is lam_n and the stationarity of pair n->m is lam_n -
    (y_nm - gamma_nm)."""
    stationarity = (lam[community.src].reshape(2, -1) - prices).ravel() + pairs.gamma
    return _stationarity_max(proposals, stationarity)


def _stationarity_max(proposals, expr):
    """Stationarity is judged on each agent's own proposals, per pair of
    the community's list: the sign multiplier is active exactly where the
    agent's projection clipped."""
    # At a traded pair the expression must vanish. At a zero trade it is
    # absorbed by the sign multiplier, which exists on one side only:
    # sellers, the first half, need expr >= 0 and buyers expr <= 0.
    k = len(expr) // 2
    oriented = np.concatenate((expr[:k], -expr[k:]))
    worst = (-oriented).max(initial=0.0)
    active = np.abs(proposals) > ACTIVE_TRADE_TOL
    return float(oriented[active].max(initial=worst)) + 0.0  # turns -0.0 into 0.0
