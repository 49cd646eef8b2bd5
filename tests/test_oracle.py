"""Reference solvers: bisection on the balance residual and the projected QP."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import DATA_DIR, acceptance_7_markets, harsh_communities, make_pair_community
from peermarket import (
    DISTANCE,
    InfeasibleError,
    PolicySpec,
    SolverConfig,
    ValidationError,
    bisection_clearing,
    build_community,
    build_gamma,
    clear_market,
    load_scenario,
    market_objective,
    qp_reference,
    social_welfare,
)
from peermarket import oracle
from peermarket.oracle import PROJECTION_TOL, _project_feasible


@pytest.fixture(scope="module")
def ne_free_qp(community):
    return qp_reference(community, np.zeros((len(community), len(community))))


@pytest.fixture(scope="module")
def bundled_qps(community, network):
    """The QP oracle on each bundled scenario's own gamma, by scenario name."""
    qps = {}
    for name in ("free", "unique", "distance", "zonal"):
        policy = load_scenario(str(DATA_DIR / f"{name}.ini")).policy
        qps[name] = qp_reference(community, build_gamma(policy, community, network=network))
    return qps


def test_bisection_pair_free():
    oracle = bisection_clearing(make_pair_community())
    assert oracle.clearing_price == pytest.approx(50.0, abs=1e-6)
    assert oracle.net_powers == pytest.approx([300.0, -300.0], abs=1e-6)
    assert oracle.newton_steps == 0


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
    gamma = build_gamma(PolicySpec(DISTANCE, 2.0), com, distances=values)
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
    # consumer 4 must buy at least 100 MW and may buy only from producer 2.
    # The optimum is -9500 exactly: pair 1-3 clears 300 MW at price 50, and
    # consumer 4's forced 100 MW come from producer 2. The stop rule lets a
    # bound miss by up to eps_primal, and each MW short of the forced
    # purchase lowers the objective by the pair's 5 EUR/MW wedge, so at
    # 1e-4 MW the engine's objective is within 5e-4 EUR of the optimum.
    com = build_community([
        (1, 1, "producer", 0.1, 20.0, 0.0, 0.0, 500.0),
        (2, 2, "producer", 0.1, 60.0, 0.0, 0.0, 500.0),
        (3, 3, "consumer", 0.1, 80.0, 0.0, -500.0, 0.0),
        (4, 4, "consumer", 0.1, 75.0, 0.0, -500.0, -100.0),
    ], partners=[(1, 3), (2, 4)])
    gamma = np.zeros((4, 4))
    qp = qp_reference(com, gamma)
    engine = clear_market(com, gamma, SolverConfig(eps_primal=1e-4))
    assert engine.converged
    f_engine = market_objective(com, engine.trades, gamma)
    f_oracle = market_objective(com, qp.trades, gamma)
    assert f_oracle == pytest.approx(-9500.0, abs=1e-6)
    assert f_engine == pytest.approx(-9500.00, abs=0.01)
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
    t, x, _ = _project_feasible(np.where(allowed, v, -np.inf), lo, hi, np.zeros(len(lo)))
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
    again, _, _ = _project_feasible(np.where(allowed, t0, -np.inf), lo, hi, x)
    np.testing.assert_allclose(again, t0, rtol=0.0, atol=1e-6)


@settings(max_examples=50, deadline=None)
@given(projection_cases(), st.floats(-3.0, 3.0))
def test_projection_from_scaled_multipliers(case, exponent):
    # the oracle's warm starts rescale multipliers by a ratio of step lengths;
    # any start must lead to the same projection
    allowed, _, lo, hi, v = case
    v = np.where(allowed, v, -np.inf)
    cold, x, _ = _project_feasible(v, lo, hi, np.zeros(len(lo)))
    warm, _, _ = _project_feasible(v, lo, hi, x * 10.0 ** exponent)
    np.testing.assert_allclose(warm, cold, rtol=0.0, atol=1e-6)


@settings(max_examples=50, deadline=None)
@given(projection_cases(), st.floats(1e-3, 10.0), st.floats(1.0, 100.0, exclude_min=True))
def test_projected_step_monotone_in_step_length(case, tau_1, ratio):
    # Calamai and More (1987), Lemma 2.2: from a feasible t, ||P(t - tau g) - t||
    # does not fall and ||P(t - tau g) - t|| / tau does not rise as tau grows.
    # qp_reference skips its fixed-step projection on the second inequality.
    allowed, t0, lo, hi, g = case
    tau_2 = tau_1 * ratio
    t, x, _ = _project_feasible(np.where(allowed, t0, -np.inf), lo, hi, np.zeros(len(lo)))

    def gap(tau):
        moved, _, _ = _project_feasible(np.where(allowed, t - tau * g, -np.inf), lo, hi, x)
        return np.linalg.norm(moved - t)

    # each gap is exact up to the projection tolerance on every pair
    short, long, error = gap(tau_1), gap(tau_2), t.size * PROJECTION_TOL
    assert long / tau_2 <= short / tau_1 + error / tau_1 + error / tau_2
    assert short <= long + 2.0 * error


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


def test_qp_iterations_on_bundled_scenarios(bundled_qps):
    iterations = {name: len(qp.objective_history) - 1 for name, qp in bundled_qps.items()}
    assert iterations == {"free": 17, "unique": 24, "distance": 36, "zonal": 19}


def test_qp_iterations_on_acceptance_7_communities():
    assert sum(len(qp_reference(com, gamma).objective_history) - 1
               for com, gamma in acceptance_7_markets()) == 483


def test_qp_line_minimisation_is_exact_over_the_kinks(monkeypatch):
    # the dual's slope along a drift ray is piecewise linear between known
    # kinks, so each line minimisation bisects over them and solves the last
    # piece: the 200 QPs evaluate it 26 times over their 11 minimisations,
    # against 586 by doubling and then halving 50 times
    evaluations = []
    line_minimum = oracle._line_minimum

    def counted(slope, kinks):
        return line_minimum(lambda c: evaluations.append(c) or slope(c), kinks)

    monkeypatch.setattr(oracle, "_line_minimum", counted)
    for com, gamma in acceptance_7_markets():
        qp_reference(com, gamma)
    assert 0 < len(evaluations) <= 60


@pytest.mark.parametrize("kinks, expected", [
    ([1.0, 3.0], 2.0),         # the root lies on the middle piece
    ([0.5, 1.0, 1.5], 2.0),    # ... past the last kink
    ([-1.0, 0.0, np.inf, np.nan, 1.0, 3.0], 2.0),  # only finite positive kinks count
])
def test_line_minimum_solves_the_linear_piece(kinks, expected):
    # slope c - 2 at rate 1: the minimum sits at c = 2 however the kinks fall
    assert oracle._line_minimum(lambda c: (c - 2.0, 1.0), np.array(kinks)) == expected


def test_line_minimum_edges():
    kinks = np.array([1.0, 2.0])
    # rising from the start
    assert oracle._line_minimum(lambda c: (c + 1.0, 1.0), kinks) == 0.0
    # a jump from falling to rising at a kink
    assert oracle._line_minimum(lambda c: (-1.0 if c < 2.0 else 1.0, 0.0), kinks) == 2.0
    # still falling past the last kink at a zero rate: unbounded
    assert oracle._line_minimum(lambda c: (-1.0, 0.0), kinks) == np.inf


@pytest.mark.parametrize("name, cap", [("distance", 75), ("zonal", 60)])
def test_qp_newton_steps_stay_warm(bundled_qps, name, cap):
    # each kind of projection warm-starts from its own last multipliers; a
    # start from the other step's multipliers took 425 and 203 steps here,
    # and running the fixed-step projection on every iteration 97 and 70
    assert 0 < bundled_qps[name].newton_steps <= cap


@pytest.mark.parametrize("name, cap", [("free", 28), ("unique", 37), ("distance", 63),
                                       ("zonal", 28)])
def test_qp_skips_fixed_step_projections_that_cannot_stop(community, network, monkeypatch,
                                                          name, cap):
    # the fixed-step projection runs only when the spectral trial's lower
    # bound lets the stop test pass: 26 / 34 / 58 / 26 projections, against
    # 39 / 55 / 87 / 43 when it ran on every iteration
    calls = []
    project = oracle._project_feasible
    monkeypatch.setattr(oracle, "_project_feasible",
                        lambda *args: calls.append(None) or project(*args))
    policy = load_scenario(str(DATA_DIR / f"{name}.ini")).policy
    qp = qp_reference(community, build_gamma(policy, community, network=network))
    assert qp.stationarity <= 1e-4
    assert 0 < len(calls) <= cap


def test_bisection_stops_at_adjacent_floats(community, monkeypatch):
    # 200 halvings plus the final evaluation before; the bracket reaches
    # adjacent floats after about 54
    calls = []
    clamped_net = oracle._clamped_net
    monkeypatch.setattr(oracle, "_clamped_net",
                        lambda *args: calls.append(None) or clamped_net(*args))
    bisection_clearing(community)
    assert len(calls) <= 64


def test_qp_reports_certificate_at_iteration_cap(community, network, monkeypatch):
    # the skip rule may leave the last iterate without a certificate, so one
    # is computed for it before raising; the message must carry a real value
    monkeypatch.setattr(oracle, "QP_MAX_ITERATIONS", 3)
    gamma = build_gamma(load_scenario(str(DATA_DIR / "distance.ini")).policy, community,
                        network=network)
    with pytest.raises(InfeasibleError, match="exhausted iterations") as raised:
        qp_reference(community, gamma)
    reported = float(str(raised.value).split("stationarity ")[1].rstrip(")"))
    assert 1e-4 < reported < np.inf


def test_qp_converges_on_harsh_community():
    # Case 13: warm-starting every projection from the last projection of
    # either kind, rescaled by the step ratio, leaves one here that never
    # converges
    com, gamma = next(case for k, case in enumerate(harsh_communities()) if k == 13)
    qp = qp_reference(com, gamma)
    assert qp.stationarity <= 1e-4
    assert market_objective(com, qp.trades, gamma) == pytest.approx(57362.49673101781, rel=1e-8)
