"""Negotiation engine: per-pair update rules and whole-market equilibria."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    DATA_DIR,
    REFERENCE_CONFIG,
    acceptance_7_markets,
    harsh_communities,
    make_pair_community,
    sparse_community,
)
from peermarket import (
    DISTANCE,
    ClearingResult,
    InfeasibleError,
    PolicySpec,
    SolverConfig,
    UNIQUE,
    ValidationError,
    ZONAL,
    bisection_clearing,
    build_community,
    build_gamma,
    clear_market,
    load_agents,
    load_network,
    load_scenario,
    market_objective,
    qp_reference,
    run_sweep,
)
import peermarket.engine as engine
from peermarket.engine import (
    ROOT_TOL,
    _LocalTerms,
    _PairTerms,
    _bisect,
    _coordinator_step,
    _kkt_max,
    _local_step,
    _multipliers,
    _price_step,
    _slope_floor,
    _stationarity_max,
)

# Per-pair arrays list the seller side of every partnership, then the buyer
# side in the same order; prices and the coordinator copy Z hold one entry
# per partnership. The pair community has pairs (1->2, 2->1); the triple
# community, one producer and two consumers, has pairs (1->2, 1->3, 2->1,
# 3->1) and partnerships (1-2, 1-3).


def triple_community_rows():
    return [
        (1, 1, "producer", 0.1, 20.0, 0.0, 0.0, 500.0),
        (2, 2, "consumer", 0.1, 80.0, 0.0, -500.0, 0.0),
        (3, 3, "consumer", 0.1, 75.0, 0.0, -500.0, 0.0),
    ]


def triple_community():
    return build_community(triple_community_rows())


def pair_terms(com):
    """The pair terms of the community without fees."""
    return _PairTerms.gather(com, np.zeros((len(com),) * 2), _LocalTerms.gather(com))


def price_step(com, y, P, s=1.0):
    """The prices after one price step from ``y`` on the proposals ``P``, at
    penalty scale ``s``."""
    _, excess = _coordinator_step(np.asarray(P, dtype=float))
    return _price_step(np.asarray(y, dtype=float), 0.5 * s * pair_terms(com).gain, excess)[0]


def test_price_update_arithmetic():
    # the producer offers 10 MW, the consumer takes nothing: the excess
    # (10 + 0) / 2 = 5 MW at the gain h(0.1, 0.1) = 0.1 lowers the pair's
    # one price by 0.5
    y = price_step(make_pair_community(), [50.0], [10.0, 0.0])
    assert y.shape == (1,)
    assert y[0] == pytest.approx(49.5)


def test_price_update_fixed_point():
    y = price_step(make_pair_community(), [50.0], [8.0, -8.0])
    assert np.array_equal(y, [50.0])


def test_price_gain_is_harmonic_mean_of_curvatures():
    # h(0.1, 0.3) = 2 * 0.03 / 0.4 = 0.15: a 5 MW excess lowers the price by
    # 0.75, and 1/h = 1/0.1 / 2 + 1/0.3 / 2 is how far the excess moves per
    # EUR/MW when both sides respond with 1/a
    com = build_community([
        (1, 1, "producer", 0.1, 20.0, 0.0, 0.0, 500.0),
        (2, 2, "consumer", 0.3, 80.0, 0.0, -500.0, 0.0),
    ])
    y = price_step(com, [50.0], [10.0, 0.0])
    assert y[0] == pytest.approx(49.25)


def test_price_step_scales_with_penalty():
    # at s = 2 the pair's penalty is rho = 2h and the same excess moves the
    # price twice as far
    assert price_step(make_pair_community(), [50.0], [10.0, 0.0], s=2.0)[0] \
        == pytest.approx(49.0)


def local_inputs(com, y, Z, s=1.0):
    """The local step's targets and 1/rho at prices ``y``, coordinator copy
    ``Z`` (each one per partnership) and penalty scale ``s``, without fees,
    as ``clear_market`` builds them, and its local terms."""
    local = _LocalTerms.gather(com)
    rho = s * pair_terms(com).gain
    sides = rho * np.asarray(Z, dtype=float)
    sides = np.concatenate((sides, -sides))
    target = np.concatenate((sides + np.tile(np.asarray(y, dtype=float), 2), com.b))
    return target, np.concatenate((np.tile(1.0 / rho, 2), local.inv_a)), local


def local_step(com, y, Z, s=1.0):
    """One exact local step at prices ``y``, coordinator copy ``Z`` and
    penalty scale ``s``, as ``clear_market`` takes its first one, from every
    agent's own b: the marginals and the proposals."""
    target, inv_rho, local = local_inputs(com, y, Z, s)
    lam, terms = _local_step(com.b, target, inv_rho, _slope_floor(inv_rho), local)
    return lam, terms[:len(com.src)]


def multipliers(com, lam):
    return _multipliers(np.asarray(lam, dtype=float), _LocalTerms.gather(com))


def bounded_pair():
    # the producer may sell at most 10 MW, at marginal cost 20 + 0.5 P
    return build_community([
        (1, 1, "producer", 0.5, 20.0, 0.0, 0.0, 10.0),
        (2, 2, "consumer", 0.1, 80.0, 0.0, -500.0, 0.0),
    ])


def test_bounds_update_inactive_stays_zero():
    # a marginal of 50 puts both totals inside their bounds (300 and -300
    # MW), so neither agent has a bound multiplier
    mu_hi, mu_lo = multipliers(make_pair_community(), [50.0, 50.0])
    assert np.array_equal(mu_hi, np.zeros(2))
    assert np.array_equal(mu_lo, np.zeros(2))


def test_bounds_update_projects_to_zero():
    # at lambda = 24 the producer's total is (24 - 20)/0.5 = 8 MW, inside
    # its 10 MW cap, so its upper multiplier is exactly zero
    mu_hi, _ = multipliers(bounded_pair(), [24.0, 50.0])
    assert mu_hi[0] == 0.0


def test_bounds_update_activates():
    # at lambda = 26 the total would be 12 MW; clipped to the 10 MW cap,
    # whose marginal cost is 25, it leaves mu_hi = 26 - 25 = 1
    mu_hi, mu_lo = multipliers(bounded_pair(), [26.0, 50.0])
    assert mu_hi[0] == pytest.approx(1.0)
    assert mu_lo[0] == 0.0


def test_gradient_step_uniform_when_balanced():
    # both consumers face the producer at one price and one penalty, so
    # its local step splits its total evenly between them
    com = triple_community()
    _, P = local_step(com, np.full(2, 50.0), [5.0, 5.0])
    assert P[0] == P[1]
    assert P[0] > 5.0


def test_gradient_step_zero_row():
    # the producer's marginal cost at zero output (52.5) is above the price
    # of either pair: it proposes exactly nothing, and its marginal stays on
    # the flat piece of its miss
    com = build_community([
        (1, 1, "producer", 0.06, 52.5, 0.0, 0.0, 170.0),
        (2, 2, "consumer", 0.1, 80.0, 0.0, -500.0, 0.0),
        (3, 3, "consumer", 0.1, 75.0, 0.0, -500.0, 0.0),
    ])
    lam, P = local_step(com, np.full(2, 40.0), np.zeros(2))
    assert np.array_equal(P[:2], np.zeros(2))
    assert lam[0] == 52.5


def test_gradient_step_single_partner():
    # one partner: P = (rho Z + y - b) / (rho + a) in closed form, here
    # (0.1 * 100 + 50 - 20) / 0.2 = 200 MW, at marginal 20 + 0.1 * 200 = 40
    lam, P = local_step(make_pair_community(), [50.0], [100.0])
    assert P[0] == pytest.approx(200.0)
    assert lam[0] == pytest.approx(40.0)


def test_gradient_step_starved_partner_keeps_share():
    # the producer trades 79 MW with consumer 2 and nothing with consumer
    # 3; at one price and one penalty both pairs move by the same amount,
    # so the starved pair gains as much as the traded one
    com = triple_community()
    _, P = local_step(com, np.full(2, 50.0), [79.0, 0.0])
    assert P[1] > 0.0
    assert P[1] - 0.0 == pytest.approx(P[0] - 79.0)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-300.0, 300.0), min_size=2, max_size=2),
       st.lists(st.floats(20.0, 90.0), min_size=2, max_size=2),
       st.sampled_from([0.25, 1.0, 8.0]))
def test_gradient_step_rows_normalised(Z, prices, s):
    # the local step's invariant: every agent's proposals sum to its total
    # clip((lambda - b)/a, p_min, p_max), within the root tolerance
    com = build_community(triple_community_rows())
    lam, P = local_step(com, prices, Z, s)
    totals = np.clip((lam - com.b) / com.a, com.p_min, com.p_max)
    assert np.abs(np.bincount(com.src, P, len(com)) - totals).max() <= ROOT_TOL


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-300.0, 300.0), min_size=2, max_size=2),
       st.lists(st.floats(20.0, 90.0), min_size=2, max_size=2),
       st.lists(st.floats(-1e4, 1e4), min_size=3, max_size=3))
def test_bisection_solves_the_local_step(Z, prices, start):
    # the fallback after NEWTON_STEPS brackets every agent's root from any
    # marginals and meets the same invariant as the Newton steps
    com = build_community(triple_community_rows())
    target, inv_rho, local = local_inputs(com, prices, Z)
    lam, terms = _bisect(np.array(start), target, inv_rho, local)
    totals = np.clip((lam - com.b) / com.a, com.p_min, com.p_max)
    assert np.abs(np.bincount(com.src, terms[:4], 3) - totals).max() <= ROOT_TOL


def test_trade_update_inverse_gradient():
    # at the consensus Z = 300 MW and the clearing price 50, the producer's
    # best response (50 - 20)/0.1 = 300 MW is a fixed point
    P = local_step(make_pair_community(), [50.0], [300.0])[1]
    assert P[0] == pytest.approx(300.0)


def test_trade_update_projects_producer():
    # price below marginal cost at zero output: the producer's proposal is
    # clipped to zero
    assert local_step(make_pair_community(), [10.0], [0.0])[1][0] == 0.0


def test_trade_update_keeps_consumer_sign():
    # from Z = 0 at price 50 the consumer buys (50 - 80)/0.2 = -150 MW
    P = local_step(make_pair_community(), [50.0], [0.0])[1]
    assert P[1] == pytest.approx(-150.0)


def coordinator_step(P):
    """The coordinator copy of both sides of the pair community's trade."""
    Z, _ = _coordinator_step(np.array(P))
    return np.concatenate((Z, -Z))


def test_coordinator_update():
    z = coordinator_step([10.0, -6.0])
    assert z[0] == 8.0
    assert z[1] == -8.0


def test_coordinator_fixed_point():
    p = np.array([8.0, -8.0])
    assert np.array_equal(coordinator_step(p), p)


def test_coordinator_cancels_sign_violation():
    z = coordinator_step([10.0, 10.0])
    assert z[0] == 0.0


def starved_pair_community():
    """Producer (a=0.07, b=24) facing a small consumer (a=0.06, b=44, at
    most 50 MW) and a large one (a=0.09, b=83) capped at 200 MW.

    The large consumer stays at its cap, so 6(lam - 24) = 7(44 - lam) + 84
    gives lam = 536/13 = 41.23, with the producer at 3200/13 = 246.15 MW and
    the small consumer at 600/13 = 46.15 MW. The small consumer's pair starts
    from zero while the producer already trades with the large one.
    """
    return build_community([
        (1, 1, "producer", 0.07, 24.0, 0.0, 0.0, 400.0),
        (2, 2, "consumer", 0.06, 44.0, 0.0, -50.0, 0.0),
        (3, 3, "consumer", 0.09, 83.0, 0.0, -200.0, 0.0),
    ])


def test_starved_pair_reaches_optimum():
    com = starved_pair_community()
    config = SolverConfig()
    result = clear_market(com, config=config)
    assert result.converged
    assert result.kkt_residual <= config.eps_price
    oracle = bisection_clearing(com)
    assert oracle.clearing_price == pytest.approx(536.0 / 13.0)
    assert oracle.net_powers == pytest.approx([3200.0 / 13.0, -600.0 / 13.0, -200.0])
    assert result.net_powers == pytest.approx(oracle.net_powers, abs=5 * config.eps_primal)


def test_zero_volume_pair_trades_exactly_zero():
    # the consumer values power at most 51.2, below either producer's
    # marginal cost at zero output (52.5 and 54.5): nothing may trade
    com = build_community([
        (1, 1, "producer", 0.09, 54.5, 0.0, 0.0, 360.0),
        (2, 2, "producer", 0.06, 52.5, 0.0, 0.0, 170.0),
        (3, 3, "consumer", 0.075, 51.2, 0.0, -470.0, 0.0),
    ])
    result = clear_market(com)
    assert result.converged
    assert np.array_equal(result.trades, np.zeros((3, 3)))
    assert np.array_equal(result.net_powers, np.zeros(3))


def test_pair_market_free(pair_community):
    result = clear_market(pair_community)
    assert result.converged
    assert result.trades[0, 1] == pytest.approx(300.0, abs=0.1)
    assert result.prices[0, 1] == pytest.approx(50.0, abs=0.01)


def test_pair_market_with_fee(pair_community):
    gamma = build_gamma(PolicySpec(UNIQUE, 10.0), pair_community)
    result = clear_market(pair_community, gamma)
    assert result.converged
    assert result.trades[0, 1] == pytest.approx(250.0, abs=0.1)
    assert result.prices[0, 1] == pytest.approx(50.0, abs=0.01)


def test_gamma_shape_checked(pair_community):
    with pytest.raises(ValidationError):
        clear_market(pair_community, np.zeros((3, 3)))


def test_nan_gamma_rejected(pair_community):
    gamma = np.array([[0.0, np.nan], [-5.0, 0.0]])
    with pytest.raises(ValidationError, match="gamma must be finite"):
        clear_market(pair_community, gamma)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_unpartnered_agent_clears_without_warnings():
    # agent 3 has no partner: its local step has only its own total, boxed
    # to [0, 0], and must raise no warning
    com = build_community(triple_community_rows(), partners=[(1, 2)])
    result = clear_market(com)
    assert result.converged
    assert result.trades[0, 1] == pytest.approx(300.0, abs=0.1)
    assert np.array_equal(result.trades[2], np.zeros(3))


def test_infeasible_market_raises():
    # the consumer must buy at least 200 MW from a producer capped at 50 MW
    com = build_community([
        (1, 1, "producer", 0.1, 20.0, 0.0, 0.0, 50.0),
        (2, 2, "consumer", 0.1, 80.0, 0.0, -500.0, -200.0),
    ])
    with pytest.raises(InfeasibleError, match="forced consumption"):
        clear_market(com)


def test_forced_agent_without_partner_raises():
    # consumer 3 must buy at least 50 MW but partners with nobody; the
    # aggregate bounds admit it, so only its partner count tells
    rows = triple_community_rows()
    rows[1] = (2, 2, "consumer", 0.1, 80.0, 0.0, -100.0, 0.0)
    rows[2] = (3, 3, "consumer", 0.1, 75.0, 0.0, -100.0, -50.0)
    com = build_community(rows, partners=[(1, 2)])
    with pytest.raises(InfeasibleError, match="agent 3 must trade but has no partner"):
        clear_market(com)


@pytest.mark.parametrize("entry", [
    clear_market,
    lambda com: qp_reference(com, np.zeros((4, 4))),
    bisection_clearing,
], ids=["clear_market", "qp_reference", "bisection_clearing"])
def test_market_infeasible_through_partnerships_raises(entry):
    # the aggregate bounds admit a dispatch, but consumer 4 must buy 100 MW
    # from producer 2 alone, which sells at most 50; the engine ran to the
    # cap on it
    com = build_community([
        (1, 1, "producer", 0.1, 20.0, 0.0, 0.0, 100.0),
        (2, 2, "producer", 0.1, 30.0, 0.0, 0.0, 50.0),
        (3, 3, "consumer", 0.1, 80.0, 0.0, -100.0, 0.0),
        (4, 4, "consumer", 0.1, 75.0, 0.0, -100.0, -100.0),
    ], partners=[(1, 3), (2, 4)])
    with pytest.raises(InfeasibleError, match="cannot carry every forced trade"):
        entry(com)


def test_converged_run_respects_bounds():
    # the consumer may buy at most 134.6 MW; a stop rule that only checked
    # bounds with a positive multiplier flagged a run buying 142.36 MW with
    # mu_lo = 0 as converged after 10 iterations
    com = build_community([
        (1, 1, "producer", 0.0121, 22.5, 0.0, 0.0, 475.8),
        (2, 2, "consumer", 0.2766, 72.6, 0.0, -134.6, 0.0),
    ])
    config = SolverConfig()
    result = clear_market(com, build_gamma(PolicySpec(UNIQUE, fee=9.0), com), config)
    assert result.converged
    assert result.net_powers[1] >= -134.6 - config.eps_primal
    oracle = bisection_clearing(com, wedge=9.0)
    assert result.net_powers == pytest.approx(oracle.net_powers, abs=5 * config.eps_primal)


def test_reported_net_powers_hold_bounds():
    # consumer 9 must buy at least 91.8 MW. The row sums of Z reached that
    # bound while the accepted trades, the smaller side of each pair, left
    # it at -91.744 MW, 5.6 x eps_primal short, and the run stopped there
    com = build_community([
        (1, 1, "producer", 0.0168, 57.26, 0.0, 0.0, 265.6),
        (2, 2, "producer", 0.1547, 61.15, 0.0, 0.0, 188.0),
        (3, 3, "producer", 0.837, 47.61, 0.0, 0.0, 332.6),
        (4, 4, "producer", 0.1864, 27.87, 0.0, 0.0, 77.8),
        (5, 5, "producer", 0.0665, 68.48, 0.0, 0.0, 416.8),
        (6, 6, "producer", 0.2884, 22.92, 0.0, 0.0, 461.0),
        (7, 7, "producer", 0.4019, 76.44, 0.0, 0.0, 285.5),
        (8, 8, "producer", 0.6781, 18.27, 0.0, 0.0, 63.6),
        (9, 9, "consumer", 0.011, 32.69, 0.0, -161.9, -91.8),
        (10, 10, "consumer", 0.012, 56.33, 0.0, -124.7, 0.0),
    ])
    config = SolverConfig()
    result = clear_market(com, config=config)
    assert result.converged
    assert np.all(result.net_powers <= com.p_max + config.eps_primal)
    assert np.all(result.net_powers >= com.p_min - config.eps_primal)
    oracle = qp_reference(com, np.zeros((10, 10)))
    assert result.net_powers[8] == pytest.approx(oracle.trades[8].sum(),
                                                 abs=config.eps_primal)


def test_harsh_community_converges():
    # nine agents with curvatures spread over 0.01-0.77 and three forced
    # purchases; with an exploration share that decayed as k^-0.5 this run
    # stopped at the 20,000-iteration cap with a KKT residual of 4.2e-3
    com = build_community([
        (1, 1, "producer", 0.2505, 83.86, 0.0, 0.0, 138.7),
        (2, 2, "producer", 0.5412, 58.03, 0.0, 0.0, 95.5),
        (3, 3, "producer", 0.0107, 76.88, 0.0, 0.0, 155.3),
        (4, 4, "consumer", 0.0163, 60.89, 0.0, -368.0, 0.0),
        (5, 5, "consumer", 0.1001, 36.84, 0.0, -193.2, -122.7),
        (6, 6, "consumer", 0.7666, 20.93, 0.0, -224.0, -18.0),
        (7, 7, "consumer", 0.1548, 83.81, 0.0, -174.5, 0.0),
        (8, 8, "consumer", 0.6326, 33.95, 0.0, -463.5, 0.0),
        (9, 9, "consumer", 0.1956, 28.59, 0.0, -174.8, -156.6),
    ])
    gamma = build_gamma(PolicySpec(UNIQUE, fee=24.0), com)
    result = clear_market(com, gamma)
    assert result.converged
    engine_obj = market_objective(com, result.trades, gamma)
    oracle_obj = market_objective(com, qp_reference(com, gamma).trades, gamma)
    assert abs(engine_obj - oracle_obj) <= 1e-3 * max(abs(oracle_obj), 1.0)


def check_polished(com, gamma, result):
    """A polished result is exact: its proposals are its trades, it is
    stationary and within its bounds up to rounding, and its objective is
    no worse than the QP's beyond that oracle's own precision."""
    assert result.stop == "polished"
    assert np.array_equal(result.proposals, result.trades)
    assert result.kkt_residual <= 1e-9
    assert np.all(result.net_powers <= com.p_max + 1e-9)
    assert np.all(result.net_powers >= com.p_min - 1e-9)
    engine_obj = market_objective(com, result.trades, gamma)
    oracle_obj = market_objective(com, qp_reference(com, gamma).trades, gamma)
    assert engine_obj - oracle_obj <= 1e-6 * max(abs(oracle_obj), 1.0)


def test_harsh_population_is_polished():
    for _, (com, gamma) in zip(range(300), harsh_communities()):
        check_polished(com, gamma, clear_market(com, gamma))


def test_harsh_population_converges():
    # 300 communities of the harsher population, each at the default
    # settings: every one must converge, none may stop at the cap
    stalled = [k for k, (com, gamma) in zip(range(300), harsh_communities())
               if not clear_market(com, gamma).converged]
    assert stalled == []


def test_sparse_community_is_polished():
    # 2,000 agents whose forest components balance only up to rounding: the
    # polish must finish the run, and the result must pass a certificate
    # that reads only its trades and marginals and the fees. Every net
    # power is the agent's best response to its lambda, and every
    # seller-side pair has lambda_c - lambda_s at most its wedge, equal
    # where it trades
    com, gamma = sparse_community()
    result = clear_market(com, gamma)
    assert result.stop == "polished"
    trades, lam = result.trades, result.marginals
    assert np.array_equal(trades, -trades.T)
    assert not trades[~com.partner_mask()].any()
    best = np.clip((lam - com.b) / com.a, com.p_min, com.p_max)
    assert np.abs(trades.sum(axis=1) - best).max() <= 1e-9
    s, c = com.seller, com.buyer
    assert np.all(trades[s, c] >= 0.0)
    gap = lam[c] - lam[s] - (gamma[s, c] - gamma[c, s])
    assert gap.max() <= 1e-9
    assert np.abs(gap[trades[s, c] > 0.0]).max() <= 1e-9


@pytest.fixture(scope="module")
def distance_market(community, network):
    """New England at the bundled distance scenario's fees. Its polish
    comes at iteration 30, so a run that stops earlier shows the loop."""
    return community, build_gamma(load_scenario(str(DATA_DIR / "distance.ini")).policy,
                                  community, network=network)


LOOSE = {"eps_price": 1e-3 * 10_000, "eps_primal": 1e-2 * 10_000}


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(SolverConfig)])
def test_every_solver_setting_can_change_the_run(name, distance_market):
    # a setting that cannot change a result should not exist. The polish
    # ends a run exactly, so each setting must end one before it: each
    # tolerance, made 10,000 times looser where the other already is, lets
    # the stop rule end the run first, and the cap ends it below the polish
    default = SolverConfig()
    if name == "max_iterations":
        before = clear_market(*distance_market, default)
        tighter = dataclasses.replace(default, max_iterations=before.iterations - 1)
    else:
        others = {key: value for key, value in LOOSE.items() if key != name}
        before = clear_market(*distance_market, dataclasses.replace(default, **others))
        tighter = dataclasses.replace(default, **LOOSE)
    after = clear_market(*distance_market, tighter)
    assert (after.iterations != before.iterations
            or not np.array_equal(after.trades, before.trades))


@pytest.mark.parametrize("config, stop", [
    (SolverConfig(), "polished"),
    (SolverConfig(**LOOSE), "converged"),
    (SolverConfig(max_iterations=5), "cap"),
])
def test_stop_reason(distance_market, config, stop):
    result = clear_market(*distance_market, config)
    assert result.stop == stop
    assert result.converged == (stop != "cap")
    assert len(result.primal_residuals) == result.iterations


def test_solver_config_validation():
    with pytest.raises(ValidationError):
        SolverConfig(eps_price=0.0)
    with pytest.raises(ValidationError):
        SolverConfig(eps_primal=-0.1)
    with pytest.raises(ValidationError):
        SolverConfig(max_iterations=0)


@pytest.mark.parametrize("name", ["eps_price", "eps_primal"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_solver_config_rejects_non_finite(name, value):
    # NaN compares false with everything, so a "<= 0" test alone lets it
    # through, and eps_price = NaN would stop the first iteration as converged
    with pytest.raises(ValidationError, match=f"{name} must be positive and finite"):
        SolverConfig(**{name: value})


@pytest.mark.parametrize("value", [1.5, float("inf"), float("nan"), True])
def test_solver_config_rejects_fractional_iteration_cap(value):
    # True is an int to Python, but not a cap
    with pytest.raises(ValidationError, match="max_iterations must be a whole number"):
        SolverConfig(max_iterations=value)


def test_solver_config_accepts_a_numpy_integer_cap(pair_community):
    config = SolverConfig(max_iterations=np.int64(100))
    assert clear_market(pair_community, None, config).stop == "polished"


def test_non_convergence_is_reported_not_raised(distance_market):
    result = clear_market(*distance_market,
                          config=SolverConfig(eps_price=1e-12, eps_primal=1e-12,
                                              max_iterations=5))
    assert not result.converged
    assert result.iterations == 5
    assert len(result.primal_residuals) == 5


def test_capped_run_reports_the_prices_its_proposals_answered(distance_market):
    # the first local step answers the opening price, the free-market
    # clearing price; a run capped there must not report the prices of the
    # step after it
    community, gamma = distance_market
    result = clear_market(community, gamma, SolverConfig(max_iterations=1))
    assert not result.converged
    price = bisection_clearing(community).clearing_price
    assert np.abs(result.prices[community.partner_mask()] - price).max() <= 1e-9


def test_reconciled_trades_skew_symmetric(free_result):
    assert np.array_equal(free_result.trades, -free_result.trades.T)
    # net powers are summed on the pair list, not from the returned matrix
    assert np.abs(free_result.net_powers - free_result.trades.sum(axis=1)).max() <= 1e-9


def test_sign_feasibility(community, free_result):
    producers = community.sign > 0
    assert np.all(free_result.proposals[producers] >= 0.0)
    assert np.all(free_result.proposals[~producers] <= 0.0)
    assert np.all(free_result.trades[producers] >= 0.0)
    assert np.all(free_result.trades[~producers] <= 0.0)


def test_balance_at_convergence(community, free_result):
    assert abs(free_result.net_powers.sum()) <= len(community) * REFERENCE_CONFIG.eps_primal


def test_residual_histories_meet_tolerances(free_result):
    assert free_result.kkt_residual <= REFERENCE_CONFIG.eps_price
    assert free_result.primal_residuals[-1] <= REFERENCE_CONFIG.eps_primal
    assert free_result.iterations == len(free_result.primal_residuals)
    assert np.array_equal(free_result.prices, free_result.prices.T)


def quad_community():
    return build_community([
        (1, 1, "producer", 0.1, 20.0, 0.0, 0.0, 500.0),
        (2, 2, "producer", 0.1, 25.0, 0.0, 0.0, 500.0),
        (3, 3, "consumer", 0.1, 80.0, 0.0, -500.0, 0.0),
        (4, 4, "consumer", 0.1, 75.0, 0.0, -500.0, 0.0),
    ])


def test_active_prices_track_uniform_clearing_price():
    com = quad_community()
    result = clear_market(com)
    assert result.converged
    active = np.abs(result.trades) > 1e-6
    spread = float(result.prices[active].max() - result.prices[active].min())
    # across-pair uniformity tracks the stopping tolerances, not machine zero
    assert spread <= 10 * SolverConfig().eps_price
    lam = bisection_clearing(com).clearing_price
    assert result.prices[active].mean() == pytest.approx(lam, abs=0.01)


def test_new_england_kkt_tracks_tolerance(community):
    result = clear_market(community,
                          config=SolverConfig(eps_primal=3e-4, max_iterations=100000))
    assert result.converged
    assert result.kkt_residual <= 10 * SolverConfig().eps_price


def test_kkt_zero_at_exact_optimum(pair_community):
    result = clear_market(pair_community)
    assert result.kkt_residual == pytest.approx(0.0, abs=1e-9)


def test_kkt_detects_price_perturbation(pair_community):
    result = clear_market(pair_community)
    at = (pair_community.src, pair_community.dst)
    bumped = result.prices[pair_community.seller, pair_community.buyer] + 1.0
    residual = _kkt_max(result.proposals[at], bumped, result.marginals, pair_community,
                        pair_terms(pair_community))
    assert residual >= 1.0 - 1e-6


def test_fee_monotone_volume(community):
    volumes = []
    for fee in (0.0, 10.0, 20.0, 30.0):
        gamma = build_gamma(PolicySpec(UNIQUE, fee), community)
        result = clear_market(community, gamma)
        assert result.converged
        volumes.append(float(result.trades[result.trades > 0].sum()))
    assert all(a >= b for a, b in zip(volumes, volumes[1:]))


@st.composite
def priced_markets(draw):
    """2-6 agents of both roles with acceptance 7's parameter ranges, a random
    nonempty set of producer-consumer partnerships and a uniform fee, as the
    rows, partner list and fee that build the market."""
    n = draw(st.integers(2, 6))
    n_producers = draw(st.integers(1, n - 1))
    rows = []
    for i in range(n):
        producer = i < n_producers
        a = draw(st.floats(0.05, 0.1))
        b = draw(st.floats(15.0, 85.0))
        cap = draw(st.floats(50.0, 500.0))
        rows.append((i + 1, i + 1, "producer" if producer else "consumer", a, b, 0.0,
                     0.0 if producer else -cap, cap if producer else 0.0))
    pairs = [(p + 1, c + 1) for p in range(n_producers) for c in range(n_producers, n)]
    partners = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    return rows, partners, draw(st.floats(0.0, 30.0))


def build_market(rows, partners, fee, scale=1.0):
    """The market with every cost coefficient and the fee multiplied by scale."""
    scaled = [(n, bus, role, scale * a, scale * b, scale * c, p_min, p_max)
              for n, bus, role, a, b, c, p_min, p_max in rows]
    com = build_community(scaled, partners=partners)
    return com, build_gamma(PolicySpec(UNIQUE, scale * fee), com)


@settings(max_examples=25, deadline=None)
@given(priced_markets())
def test_prices_stay_exactly_symmetric(market):
    com, gamma = build_market(*market)
    result = clear_market(com, gamma, SolverConfig(max_iterations=2000))
    assert np.array_equal(result.prices, result.prices.T)
    # state exists only on partnered pairs, and some agents may have none
    off = ~com.partner_mask()
    for matrix in (result.trades, result.proposals, result.prices):
        assert not matrix[off].any()
    # the net powers are those of the returned trades
    assert np.abs(result.net_powers - result.trades.sum(axis=1)).max() <= 1e-9


@settings(max_examples=25, deadline=None)
@given(priced_markets())
def test_polished_results_are_exact(market):
    com, gamma = build_market(*market)
    result = clear_market(com, gamma)
    if result.stop == "polished":
        check_polished(com, gamma, result)


def test_polish_stays_cheap_on_the_zonal_sweep(community, network, monkeypatch):
    # the polish is tried only when the pairs that trade change, and the
    # flow runs only after every cheaper test passes: 28 tries and 14 flow
    # calls on the 13 fees at acceptance 5's settings
    calls = {"_polish": 0, "_transport": 0}
    for name in calls:
        original = getattr(engine, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(engine, name, counted)
    records = run_sweep(community, network, PolicySpec(ZONAL), [5.0 * i for i in range(13)],
                        config=SolverConfig(eps_primal=3e-3, max_iterations=100000))
    assert all(record.converged for record in records)
    assert calls["_polish"] <= 30
    assert calls["_transport"] <= 16


@settings(max_examples=25, deadline=None)
@given(priced_markets(), st.sampled_from([3, SolverConfig().max_iterations]))
def test_kkt_residual_reads_the_marginals(market, cap):
    # the run and its result judge stationarity by one expression, lambda_n
    # - (y - gamma); it agrees with the marginal-cost form a * total + b +
    # mu_hi - mu_lo - (y - gamma) up to the local step's root tolerance
    com, gamma = build_market(*market)
    result = clear_market(com, gamma, SolverConfig(max_iterations=cap))
    at = (com.src, com.dst)
    mu_hi, mu_lo = multipliers(com, result.marginals)
    marginal = com.a * result.proposals.sum(axis=1) + com.b + mu_hi - mu_lo
    reference = _stationarity_max(result.proposals[at],
                                  marginal[com.src] - (result.prices - gamma)[at])
    assert abs(result.kkt_residual - reference) <= com.a.max() * ROOT_TOL + 1e-9


@settings(max_examples=25, deadline=None)
@given(priced_markets(), st.integers(-3, 3).filter(bool))
def test_currency_unit_does_not_change_the_run(market, j):
    # the gains and stop rule scale with the cost unit, so restating every
    # price in a unit 2^j times smaller is the same run, bit for bit
    scale = 2.0 ** j
    config = SolverConfig(max_iterations=5000)
    base = clear_market(*build_market(*market), config)
    scaled = clear_market(*build_market(*market, scale=scale),
                          dataclasses.replace(config, eps_price=scale * config.eps_price))
    assert scaled.iterations == base.iterations
    assert scaled.converged == base.converged
    assert np.array_equal(scaled.trades, base.trades)
    assert np.array_equal(scaled.prices, scale * base.prices)


def test_determinism():
    com = quad_community()
    a = clear_market(com)
    b = clear_market(com)
    assert np.array_equal(a.trades, b.trades)
    assert np.array_equal(a.prices, b.prices)
    assert a.iterations == b.iterations


# Iterations of the four bundled scenarios at their own settings. A change
# meant only to make the loop faster must leave the negotiation alone, so
# these move only with a deliberate change to its dynamics.
SCENARIO_ITERATIONS = {"free": 1, "unique": 1, "distance": 30, "zonal": 1}


@pytest.mark.parametrize("name", sorted(SCENARIO_ITERATIONS))
def test_bundled_scenario_iterations(name):
    scenario = load_scenario(str(DATA_DIR / f"{name}.ini"))
    network = load_network(scenario.network_path)
    community = load_agents(scenario.agents_path, network=network)
    gamma = build_gamma(scenario.policy, community, network=network)
    result = clear_market(community, gamma, scenario.solver)
    assert result.converged
    assert result.iterations == SCENARIO_ITERATIONS[name]


# Iterations per market of acceptance 5's three sweeps at its settings
# (unique and zonal fees 0-60 in steps of 5, distance fees 0-6.5 in steps of
# 0.5), of the distance fees 0-60 in steps of 5 and of acceptance 7's 200
# markets, pinned like the scenarios above. The first try's completed
# trading set polishes unique fees 50-60, zonal fee 60 and distance fees
# 25-60 at iteration 1.
SWEEP_CONFIG = SolverConfig(eps_primal=3e-3, max_iterations=100000)
SWEEP_ITERATIONS = {
    "unique": (UNIQUE, [5.0 * i for i in range(13)], [1] * 13),
    "zonal": (ZONAL, [5.0 * i for i in range(13)], [1, 2, 1, 41, 15, 1, 1, 1, 1, 1, 1, 1, 1]),
    "distance": (DISTANCE, [0.5 * i for i in range(14)],
                 [1, 80, 78, 66, 25, 36, 23, 20, 55, 25, 26, 22, 22, 22]),
    "distance-0-60": (DISTANCE, [5.0 * i for i in range(13)],
                      [1, 26, 30, 47, 101, 1, 1, 1, 1, 1, 1, 1, 1]),
}


@pytest.mark.parametrize("name", sorted(SWEEP_ITERATIONS))
def test_acceptance_5_sweep_iterations(name, community, network):
    kind, fees, expected = SWEEP_ITERATIONS[name]
    records = run_sweep(community, network, PolicySpec(kind), fees, config=SWEEP_CONFIG)
    assert [record.iterations for record in records] == expected


@pytest.mark.parametrize("kind, fees", [(UNIQUE, [50.0, 55.0, 60.0]), (ZONAL, [60.0]),
                                        (DISTANCE, [5.0 * i for i in range(5, 13)])])
def test_completed_first_tries_are_exact(kind, fees, community, network):
    # every sweep market that the first try's completed trading set now
    # polishes at iteration 1 is the exact optimum
    unit = build_gamma(PolicySpec(kind, fee=1.0), community, network=network)
    for fee in fees:
        gamma = fee * unit
        result = clear_market(community, gamma, SWEEP_CONFIG)
        assert result.iterations == 1
        check_polished(community, gamma, result)


def test_distance_scenario_rejects_its_completed_first_try(distance_market, monkeypatch):
    # at iteration 1 four agents forced to trade have no trading pair; the
    # first try gives each its partnership of least slack, the certificate
    # rejects that set, and the run still polishes at iteration 30
    tries, added = [], []
    polish, least_slack = engine._polish, engine._least_slack

    def recorded(*args):
        exact = polish(*args)
        tries.append((args[-1] is not None, exact is None))
        return exact

    monkeypatch.setattr(engine, "_polish", recorded)
    monkeypatch.setattr(engine, "_least_slack",
                        lambda *args: added.append(least_slack(*args)) or added[-1])
    result = clear_market(*distance_market)
    assert [len(pairs) for pairs in added] == [4]
    assert tries[0] == (True, True)
    assert not any(completed for completed, _ in tries[1:])
    assert result.stop == "polished"
    assert result.iterations == 30


def test_acceptance_7_iterations():
    # every market polishes at its first iteration but cases 127 and 131
    iterations = [clear_market(com, gamma).iterations for com, gamma in acceptance_7_markets()]
    assert iterations == [6 if case in (127, 131) else 1 for case in range(200)]


@pytest.mark.parametrize("partners", [None, [(2, 1)], []])
def test_whole_number_rows_clear_like_float_rows(partners):
    # agent rows written with whole numbers are the same market as the
    # same rows written as floats
    rows = [(1, 1, "producer", 0.1, 20, 0, 0, 100), (2, 2, "consumer", 0.1, 80, 0, -100, 0)]
    floats = [row[:3] + tuple(float(value) for value in row[3:]) for row in rows]
    whole = clear_market(build_community(rows, partners))
    exact = clear_market(build_community(floats, partners))
    for field in dataclasses.fields(ClearingResult):
        assert np.array_equal(getattr(whole, field.name), getattr(exact, field.name)), field.name
