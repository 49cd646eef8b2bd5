"""Reference solvers: bisection on the balance residual and the projected QP."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_pair_community
from peermarket import (
    DISTANCE,
    DistanceMatrix,
    InfeasibleError,
    PolicySpec,
    ValidationError,
    bisection_clearing,
    build_community,
    build_gamma,
    clear_market,
    market_objective,
    qp_reference,
    social_welfare,
)
from peermarket.distances import POWER_TRANSFER
from peermarket.oracle import PROJECTION_TOL, _project_feasible


@pytest.fixture(scope="module")
def ne_free_qp(community):
    return qp_reference(community, np.zeros((len(community), len(community))))


def test_bisection_pair_free():
    oracle = bisection_clearing(make_pair_community())
    assert oracle.clearing_price == pytest.approx(50.0, abs=1e-6)
    assert oracle.net_powers == pytest.approx([300.0, -300.0], abs=1e-6)


def test_bisection_pair_with_wedge():
    oracle = bisection_clearing(make_pair_community(), wedge=10.0)
    assert oracle.clearing_price == pytest.approx(50.0, abs=1e-6)
    assert oracle.net_powers == pytest.approx([250.0, -250.0], abs=1e-6)


def test_bisection_balances(community):
    oracle = bisection_clearing(community)
    assert abs(oracle.net_powers.sum()) <= 1e-6
    assert np.all(oracle.net_powers <= community.p_max + 1e-12)
    assert np.all(oracle.net_powers >= community.p_min - 1e-12)


def test_balance_residual_monotone(community):
    def response(lam):
        return float(np.clip((lam - community.b) / community.a,
                             community.p_min, community.p_max).sum())

    grid = np.linspace(0.0, 120.0, 25)
    values = [response(lam) for lam in grid]
    assert all(a <= b + 1e-9 for a, b in zip(values, values[1:]))


def test_bisection_infeasible_forced_load():
    with pytest.raises(InfeasibleError):
        bisection_clearing(build_community([
            (1, 1, "producer", 0.1, 20.0, 0.0, 0.0, 10.0),
            (2, 2, "consumer", 0.1, 80.0, 0.0, -50.0, -30.0),
        ]))


def test_qp_matches_bisection_on_pair():
    com = make_pair_community()
    qp = qp_reference(com, np.zeros((2, 2)))
    assert qp.net_powers == pytest.approx([300.0, -300.0], abs=0.1)
    producer_marginal = 0.1 * qp.net_powers[0] + 20.0
    assert producer_marginal == pytest.approx(50.0, abs=0.01)
    assert qp.stationarity <= 1e-4


def test_qp_matches_bisection_on_bundled_case(community, ne_free_qp):
    oracle = bisection_clearing(community)
    np.testing.assert_allclose(ne_free_qp.net_powers, oracle.net_powers,
                               rtol=0, atol=0.1)


def test_qp_objective_decreases(ne_free_qp):
    history = np.asarray(ne_free_qp.objective_history)
    assert np.all(np.diff(history) <= 1e-9)


def test_qp_splits_identical_consumers():
    com = build_community([
        (1, 1, "producer", 0.1, 20.0, 0.0, 0.0, 500.0),
        (2, 2, "consumer", 0.1, 80.0, 0.0, -500.0, 0.0),
        (3, 3, "consumer", 0.1, 80.0, 0.0, -500.0, 0.0),
    ])
    qp = qp_reference(com, np.zeros((3, 3)))
    assert qp.trades[0, 1] == pytest.approx(qp.trades[0, 2], abs=1e-3)
    assert qp.net_powers[1] == pytest.approx(qp.net_powers[2], abs=1e-3)


def test_distance_charges_favour_close_partners():
    com = build_community([
        (1, 1, "producer", 0.1, 20.0, 0.0, 0.0, 500.0),
        (2, 2, "producer", 0.1, 20.0, 0.0, 0.0, 500.0),
        (3, 3, "consumer", 0.1, 80.0, 0.0, -500.0, 0.0),
        (4, 4, "consumer", 0.1, 80.0, 0.0, -500.0, 0.0),
    ])
    # producer 1 is close to consumer 3, producer 2 to consumer 4
    values = np.zeros((4, 4))
    for i, j in ((0, 3), (1, 2)):
        values[i, j] = values[j, i] = 10.0
    for i, j in ((0, 2), (1, 3)):
        values[i, j] = values[j, i] = 1.0
    gamma = build_gamma(PolicySpec(DISTANCE, 2.0), com,
                        distances=DistanceMatrix(POWER_TRANSFER, values))
    qp = qp_reference(com, gamma)
    near = qp.trades[0, 2] + qp.trades[1, 3]
    far = qp.trades[0, 3] + qp.trades[1, 2]
    assert near >= far


@pytest.mark.parametrize("solve, message", [
    (lambda com: qp_reference(com, np.zeros((3, 3))), "gamma must be 2x2"),
    (lambda com: qp_reference(com, np.array([[0.0, np.nan], [-5.0, 0.0]])),
     "gamma must be finite"),
    (lambda com: bisection_clearing(com, wedge=np.nan), "wedge must be finite"),
], ids=["qp_shape", "qp_nan", "bisection_nan"])
def test_oracles_reject_bad_gamma(solve, message):
    with pytest.raises(ValidationError, match=message):
        solve(make_pair_community())


def test_qp_reads_missing_gamma_as_no_fees():
    com = make_pair_community()
    np.testing.assert_array_equal(qp_reference(com, None).trades,
                                  qp_reference(com, np.zeros((2, 2))).trades)


def test_infeasible_bounds_rejected_by_qp():
    with pytest.raises(InfeasibleError):
        qp_reference(build_community([
            (1, 1, "producer", 0.1, 20.0, 0.0, 100.0, 200.0),
            (2, 2, "consumer", 0.1, 80.0, 0.0, -50.0, 0.0),
        ]), np.zeros((2, 2)))


def test_qp_solves_partnered_market_with_forced_purchase():
    # consumer 4 must buy at least 100 MW and may buy only from producer 2
    com = build_community([
        (1, 1, "producer", 0.1, 20.0, 0.0, 0.0, 500.0),
        (2, 2, "producer", 0.1, 60.0, 0.0, 0.0, 500.0),
        (3, 3, "consumer", 0.1, 80.0, 0.0, -500.0, 0.0),
        (4, 4, "consumer", 0.1, 75.0, 0.0, -500.0, -100.0),
    ], partners=[(1, 3), (2, 4)])
    gamma = np.zeros((4, 4))
    qp = qp_reference(com, gamma)
    engine = clear_market(com, gamma)
    assert engine.converged
    f_engine = market_objective(com, engine.trades, gamma)
    f_oracle = market_objective(com, qp.trades, gamma)
    assert f_engine == pytest.approx(-9500.08, abs=0.01)
    assert abs(f_engine - f_oracle) <= 1e-3 * abs(f_oracle)
    assert qp.net_powers[3] <= -100.0 + 1e-6


@st.composite
def projection_cases(draw):
    """A feasible projection by construction: a nonnegative t0 on a partial
    mask first, then row and column sum boxes around its sums (lower bounds
    positive unless the slack covers the sum, upper bounds sometimes
    infinite), and a point v to project."""
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 4))

    def matrix(elements):
        return np.array(draw(st.lists(elements, min_size=rows * cols,
                                      max_size=rows * cols))).reshape(rows, cols)

    allowed = matrix(st.booleans())
    t0 = np.where(allowed, matrix(st.floats(0.0, 500.0)), 0.0)
    sums = np.concatenate((t0.sum(axis=1), t0.sum(axis=0)))
    lo = np.array([max(s - draw(st.floats(0.0, 100.0)), 0.0) for s in sums])
    hi = np.array([s + draw(st.floats(0.0, 100.0)) if draw(st.booleans()) else np.inf
                   for s in sums])
    return allowed, t0, lo, hi, matrix(st.floats(-500.0, 500.0))


@settings(max_examples=50, deadline=None)
@given(projection_cases())
def test_projection_meets_its_kkt_conditions(case):
    allowed, t0, lo, hi, v = case
    rows = t0.shape[0]
    t, x = _project_feasible(np.where(allowed, v, -np.inf), lo, hi, np.zeros(len(lo)))
    assert (t >= 0.0).all()
    assert not t[~allowed].any()
    sums = np.concatenate((t.sum(axis=1), t.sum(axis=0)))
    assert (sums >= lo - PROJECTION_TOL).all()
    assert (sums <= hi + PROJECTION_TOL).all()
    # certificate: t = max(v - lam_p - mu_c, 0) on allowed pairs, and a
    # multiplier is positive only at its upper bound, negative only at its lower
    expected = np.where(allowed, np.maximum(v - x[:rows, None] - x[None, rows:], 0.0), 0.0)
    assert np.array_equal(t, expected)
    assert (sums[x > PROJECTION_TOL] >= hi[x > PROJECTION_TOL] - PROJECTION_TOL).all()
    assert (sums[x < -PROJECTION_TOL] <= lo[x < -PROJECTION_TOL] + PROJECTION_TOL).all()
    # a feasible point is its own projection, also warm-started elsewhere
    again, _ = _project_feasible(np.where(allowed, t0, -np.inf), lo, hi, x)
    np.testing.assert_allclose(again, t0, rtol=0.0, atol=1e-6)


@pytest.mark.parametrize("p_max_2, partners", [
    (50.0, [(1, 3), (2, 4)]),    # consumer 4 must buy 100 MW, producer 2 sells 50
    (500.0, [(1, 3), (1, 4)]),   # producer 2 must sell 10 MW and has no partner
])
def test_qp_rejects_market_infeasible_through_partnerships(p_max_2, partners):
    com = build_community([
        (1, 1, "producer", 0.1, 20.0, 0.0, 0.0, 500.0),
        (2, 2, "producer", 0.1, 60.0, 0.0, 10.0, p_max_2),
        (3, 3, "consumer", 0.1, 80.0, 0.0, -500.0, 0.0),
        (4, 4, "consumer", 0.1, 75.0, 0.0, -500.0, -100.0),
    ], partners=partners)
    with pytest.raises(InfeasibleError, match="feasible set is empty"):
        qp_reference(com, np.zeros((4, 4)))


def test_projection_without_feasible_point_raises():
    # the second row must carry 10 MW but has no allowed pair
    allowed = np.array([[True, True], [False, False]])
    v = np.where(allowed, 1.0, -np.inf)
    lo = np.array([0.0, 10.0, 0.0, 0.0])
    hi = np.full(4, np.inf)
    with pytest.raises(InfeasibleError, match="did not converge"):
        _project_feasible(v, lo, hi, np.zeros(4), max_steps=100)


def test_social_welfare_at_rest():
    com = build_community([
        (1, 1, "producer", 0.1, 20.0, 0.0, 0.0, 500.0),
        (2, 2, "consumer", 0.1, 80.0, 0.0, -500.0, 0.0),
    ])
    assert social_welfare(com, np.zeros(2)) == 0.0


def test_optimum_beats_perturbations():
    com = make_pair_community()
    best = social_welfare(com, np.array([300.0, -300.0]))
    for shift in (10.0, -10.0):
        assert social_welfare(com, np.array([300.0 + shift, -(300.0 + shift)])) > best


def test_engine_objective_matches_oracle(community, free_result, ne_free_qp):
    gamma = np.zeros((len(community), len(community)))
    f_engine = market_objective(community, free_result.trades, gamma)
    f_oracle = market_objective(community, ne_free_qp.trades, gamma)
    assert abs(f_engine - f_oracle) <= 1e-3 * abs(f_oracle)
