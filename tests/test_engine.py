"""Negotiation engine: per-pair update rules and whole-market equilibria."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import REFERENCE_CONFIG, make_pair_community
from peermarket import (
    InfeasibleError,
    PolicySpec,
    SolverConfig,
    UNIQUE,
    ValidationError,
    bisection_clearing,
    build_community,
    build_gamma,
    clear_market,
    kkt_residual,
)
from peermarket.engine import (
    MarketState,
    _bound_vectors,
    _coordinator_step,
    _pair_weights,
    _price_step,
    _trade_step,
)

# Per-pair arrays follow the community's row-major pair order. The pair
# community has pairs (1->2, 2->1); the triple community, one producer and
# two consumers, has pairs (1->2, 1->3, 2->1, 3->1).


def flat_gain(alpha, **kwargs):
    return SolverConfig(alpha0=alpha, alpha_decay=0.0, **kwargs)


def pair_state(y=None, P=None, Z=None, k=1):
    com = make_pair_community()
    state = MarketState.initial(com)
    state.k = k
    if y is not None:
        state.y = np.asarray(y, dtype=float)
    if P is not None:
        state.P = np.asarray(P, dtype=float)
    if Z is not None:
        state.Z = np.asarray(Z, dtype=float)
    return state


def triple_community_rows():
    return [
        (1, 1, "producer", 0.1, 20.0, 0.0, 0.0, 500.0),
        (2, 2, "consumer", 0.1, 80.0, 0.0, -500.0, 0.0),
        (3, 3, "consumer", 0.1, 75.0, 0.0, -500.0, 0.0),
    ]


def triple_community():
    return build_community(triple_community_rows())


def test_price_update_arithmetic():
    # the producer offers 10 MW, the consumer takes nothing: the excess
    # (10 + 0) / 2 = 5 MW at alpha = 0.1 lowers the pair's one price by 0.5
    state = pair_state(y=[50.0, 50.0], P=[10.0, 0.0], Z=[5.0, -5.0])
    y = _price_step(state, flat_gain(alpha=0.1))
    assert y[0] == pytest.approx(49.5)
    assert y[1] == y[0]


def test_price_update_fixed_point():
    state = pair_state(y=[50.0, 50.0], P=[8.0, -8.0], Z=[8.0, -8.0])
    y = _price_step(state, SolverConfig())
    assert y[0] == 50.0
    assert y[1] == 50.0


def test_price_update_zero_gains_leave_price():
    state = pair_state(y=[50.0, 50.0], P=[10.0, 0.0], Z=[5.0, -5.0])
    y = _price_step(state, flat_gain(alpha=1e-300))
    assert y[0] == pytest.approx(50.0)
    assert y[1] == pytest.approx(50.0)


def test_bounds_update_inactive_stays_zero():
    state = pair_state(Z=[10.0, -10.0])
    mu_hi, mu_lo = _bound_vectors(state, SolverConfig())
    assert (mu_hi[0], mu_lo[0]) == (0.0, 0.0)


def test_bounds_update_projects_to_zero():
    # mu_hi = 1, rho*(Z_n - p_max) = -2 pushes the multiplier through zero
    com = build_community([
        (1, 1, "producer", 0.1, 20.0, 0.0, 0.0, 10.0),
        (2, 2, "consumer", 0.1, 80.0, 0.0, -500.0, 0.0),
    ])
    state = MarketState.initial(com)
    state.Z = np.array([6.0, -6.0])
    state.mu_hi = np.array([1.0, 0.0])
    mu_hi, _ = _bound_vectors(state, SolverConfig(rho=0.5))
    assert mu_hi[0] == 0.0


def test_bounds_update_activates():
    # Z_n - p_max = +2 at rho = 0.5 raises mu_hi from rest to 1.0
    com = build_community([
        (1, 1, "producer", 0.1, 20.0, 0.0, 0.0, 10.0),
        (2, 2, "consumer", 0.1, 80.0, 0.0, -500.0, 0.0),
    ])
    state = MarketState.initial(com)
    state.Z = np.array([12.0, -12.0])
    mu_hi, _ = _bound_vectors(state, SolverConfig(rho=0.5))
    assert mu_hi[0] == pytest.approx(1.0)


def test_gradient_step_uniform_when_balanced():
    com = triple_community()
    state = MarketState.initial(com)
    state.Z = np.array([5.0, 5.0, -5.0, -5.0])
    weights = _pair_weights(state, SolverConfig())
    assert weights[0] == pytest.approx(0.5)
    assert weights[1] == pytest.approx(0.5)


def test_gradient_step_zero_row():
    com = triple_community()
    state = MarketState.initial(com)
    assert _pair_weights(state, SolverConfig())[0] == pytest.approx(0.5)


def test_gradient_step_single_partner():
    state = pair_state()
    assert _pair_weights(state, SolverConfig())[0] == 1.0


def test_gradient_step_starved_partner_keeps_share():
    # k = 4, tau = 1: exploration 4^-0.5 * (1 + 79) = 40 per partner, so the
    # weights are 79 + 40 = 119 and 0 + 40 = 40 out of 159
    com = triple_community()
    state = MarketState.initial(com)
    state.Z = np.array([79.0, 0.0, -79.0, 0.0])
    state.k = 4
    weights = _pair_weights(state, SolverConfig())
    assert weights[1] == pytest.approx(40.0 / 159.0)
    assert weights[0] == pytest.approx(119.0 / 159.0)


def test_gradient_step_rows_normalised():
    com = triple_community()
    state = MarketState.initial(com)
    state.Z = np.array([80.0, 3.0, -80.0, -3.0])
    state.k = 7
    total = _pair_weights(state, SolverConfig())[com.src == 0].sum()
    assert total == pytest.approx(1.0, abs=1e-12)


def trade_step(state):
    proposals, _ = _trade_step(state, SolverConfig(), np.zeros(2))
    return proposals


def test_trade_update_inverse_gradient():
    state = pair_state(y=[50.0, 50.0])
    assert trade_step(state)[0] == pytest.approx(300.0)


def test_trade_update_projects_producer():
    # price below marginal cost at zero output: candidate negative, clipped
    state = pair_state(y=[10.0, 10.0])
    assert trade_step(state)[0] == 0.0


def test_trade_update_keeps_consumer_sign():
    state = pair_state(y=[50.0, 50.0])
    assert trade_step(state)[1] == pytest.approx(-300.0)


def coordinator_step(P):
    return _coordinator_step(np.array(P), make_pair_community().rev)


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
    # agent 3 has no partner; its weight row must not be computed as 0/0
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


def test_solver_config_validation():
    with pytest.raises(ValidationError):
        SolverConfig(rho=0.0)
    with pytest.raises(ValidationError):
        SolverConfig(alpha_decay=-0.1)
    with pytest.raises(ValidationError):
        SolverConfig(max_iterations=0)


def test_non_convergence_is_reported_not_raised():
    result = clear_market(quad_community(),
                          config=SolverConfig(eps_price=1e-12, eps_primal=1e-12,
                                              max_iterations=5))
    assert not result.converged
    assert result.iterations == 5
    assert len(result.primal_residuals) == 5


def test_reconciled_trades_skew_symmetric(free_result):
    assert np.array_equal(free_result.trades, -free_result.trades.T)


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
    assert kkt_residual(result, pair_community) == pytest.approx(0.0, abs=1e-9)


def test_kkt_detects_price_perturbation(pair_community):
    result = clear_market(pair_community)
    bumped = result.prices + np.array([[0.0, 1.0], [0.0, 0.0]])
    perturbed = dataclasses.replace(result, prices=bumped)
    assert kkt_residual(perturbed, pair_community) >= 1.0 - 1e-6


def test_fee_monotone_volume(community):
    volumes = []
    for fee in (0.0, 10.0, 20.0, 30.0):
        gamma = build_gamma(PolicySpec(UNIQUE, fee), community)
        result = clear_market(community, gamma)
        assert result.converged
        volumes.append(float(result.trades[result.trades > 0].sum()))
    assert all(a >= b for a, b in zip(volumes, volumes[1:]))


@st.composite
def priced_communities(draw):
    """2-6 agents of both roles with acceptance 7's parameter ranges, a random
    nonempty set of producer-consumer partnerships and a uniform fee."""
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
    com = build_community(rows, partners=partners)
    return com, build_gamma(PolicySpec(UNIQUE, draw(st.floats(0.0, 30.0))), com)


@settings(max_examples=25, deadline=None)
@given(priced_communities())
def test_prices_stay_exactly_symmetric(case):
    com, gamma = case
    result = clear_market(com, gamma, SolverConfig(max_iterations=2000))
    assert np.array_equal(result.prices, result.prices.T)
    # state exists only on partnered pairs, and some agents may have none
    off = ~com.partner_mask()
    for matrix in (result.trades, result.proposals, result.prices):
        assert not matrix[off].any()


def test_determinism():
    com = quad_community()
    a = clear_market(com)
    b = clear_market(com)
    assert np.array_equal(a.trades, b.trades)
    assert np.array_equal(a.prices, b.prices)
    assert a.iterations == b.iterations
