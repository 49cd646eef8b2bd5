from __future__ import annotations

import numpy as np
import pytest

from conftest import make_pair_community
from peermarket import (
    DISTANCE,
    FREE,
    KINDS,
    UNIQUE,
    ZONAL,
    PolicySpec,
    SolverConfig,
    ValidationError,
    build_gamma,
    clear_market,
    perceived_price,
    total_collected,
)
from peermarket.reports import active_trade_count


def test_policy_kinds():
    assert KINDS == (FREE, UNIQUE, DISTANCE, ZONAL)


def test_policy_spec_validation():
    with pytest.raises(ValidationError):
        PolicySpec("subsidised")
    with pytest.raises(ValidationError, match="unknown distance metric 'manhattan'"):
        PolicySpec(DISTANCE, metric="manhattan")
    for fee in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValidationError, match="network fee must be nonnegative and finite"):
            PolicySpec(UNIQUE, fee=fee)


def test_free_gamma_is_zero(pair_community):
    assert not build_gamma(PolicySpec(FREE), pair_community).any()


def test_unique_gamma_halves_fee(pair_community):
    g = build_gamma(PolicySpec(UNIQUE, 10.0), pair_community)
    assert g[0, 1] == 5.0
    assert g[1, 0] == -5.0
    assert g[0, 0] == g[1, 1] == 0.0


def test_distance_gamma(pair_community):
    d = np.array([[0.0, 7.3], [7.3, 0.0]])
    g = build_gamma(PolicySpec(DISTANCE, 2.0), pair_community, distances=d)
    assert g[0, 1] == pytest.approx(7.3)
    assert g[1, 0] == pytest.approx(-7.3)


def test_zonal_gamma_counts_zones(pair_community):
    counts = np.array([[1, 2], [2, 1]])
    g = build_gamma(PolicySpec(ZONAL, 10.0), pair_community, zone_counts=counts)
    assert g[0, 1] == 10.0
    assert g[1, 0] == -10.0
    # twice the unique charge at the same fee for a two-zone trade
    u = build_gamma(PolicySpec(UNIQUE, 10.0), pair_community)
    assert g[0, 1] == 2.0 * u[0, 1]


def test_zonal_intra_zone_degenerates_to_unique(pair_community):
    counts = np.ones((2, 2))
    g = build_gamma(PolicySpec(ZONAL, 10.0), pair_community, zone_counts=counts)
    u = build_gamma(PolicySpec(UNIQUE, 10.0), pair_community)
    assert np.array_equal(g, u)


def test_gamma_homogeneous_in_fee(pair_community):
    d = np.array([[0.0, 3.7], [3.7, 0.0]])
    counts = np.array([[1, 3], [3, 1]])
    for kwargs in (dict(policy=PolicySpec(UNIQUE, 4.0)),
                   dict(policy=PolicySpec(DISTANCE, 4.0), distances=d),
                   dict(policy=PolicySpec(ZONAL, 4.0), zone_counts=counts)):
        policy = kwargs.pop("policy")
        doubled = PolicySpec(policy.kind, policy.fee * 2, policy.metric)
        g1 = build_gamma(policy, pair_community, **kwargs)
        g2 = build_gamma(doubled, pair_community, **kwargs)
        assert np.array_equal(g2, 2.0 * g1)


def test_missing_dependency_errors(pair_community):
    with pytest.raises(ValidationError):
        build_gamma(PolicySpec(DISTANCE, 1.0), pair_community)
    with pytest.raises(ValidationError):
        build_gamma(PolicySpec(ZONAL, 1.0), pair_community)


def test_distance_matrix_may_be_a_nested_list(pair_community):
    d = [[0.0, 7.3], [7.3, 0.0]]
    g = build_gamma(PolicySpec(DISTANCE, 2.0), pair_community, distances=d)
    assert np.array_equal(g, build_gamma(PolicySpec(DISTANCE, 2.0), pair_community,
                                         distances=np.array(d)))


@pytest.mark.parametrize("kind, key", [(DISTANCE, "distances"), (ZONAL, "zone_counts")])
@pytest.mark.parametrize("matrix", [
    3.0,                                    # a scalar would broadcast to every pair
    [[0.0, 2.0]],                           # 1 x N would broadcast down the rows
    [[0.0, float("nan")], [1.0, 0.0]],
    [[0.0, float("inf")], [1.0, 0.0]],
    [[0.0, -1.0], [-1.0, 0.0]],
    np.zeros((3, 3)),
], ids=["scalar", "one_row", "nan", "inf", "negative", "too_large"])
def test_malformed_agent_matrix_rejected(pair_community, kind, key, matrix):
    with pytest.raises(ValidationError, match=f"{key} must be a finite, nonnegative 2 x 2"):
        build_gamma(PolicySpec(kind, 2.0), pair_community, **{key: matrix})


def test_perceived_price():
    assert perceived_price(58.1, -5.0) == pytest.approx(63.1)
    assert perceived_price(58.1, 5.0) == pytest.approx(53.1)
    assert perceived_price(58.1, 0.0) == 58.1


def test_operator_revenue_unique_closed_form(pair_community):
    trades = np.array([[0.0, 250.0], [-250.0, 0.0]])
    g = build_gamma(PolicySpec(UNIQUE, 10.0), pair_community)
    assert total_collected(trades, g) == pytest.approx(10.0 * 250.0)


def test_operator_revenue_free_policy(free_result):
    assert total_collected(free_result.trades, np.zeros_like(free_result.trades)) == 0.0


def test_operator_revenue_nonnegative():
    com = make_pair_community()
    g = build_gamma(PolicySpec(UNIQUE, 10.0), com)
    result = clear_market(com, g)
    assert result.converged
    assert total_collected(result.trades, g) >= 0.0


def test_per_pair_charge_is_a_cost(community, free_result):
    g = build_gamma(PolicySpec(UNIQUE, 10.0), community)
    assert np.all(g * free_result.trades >= 0.0)


def test_fees_thin_out_the_trade_graph(community, network):
    """A uniform fee makes every producer-consumer pair alike, so it fixes
    the volume but not how trades split across pairs. A distance fee makes
    the pairs differ: with the agents' totals fixed at the optimum, the
    split solves a transportation problem, whose optimal vertex trades on at
    most P + C - 1 pairs."""
    cfg = SolverConfig(eps_primal=3e-3, max_iterations=100000)
    free = clear_market(community, config=cfg)
    unique = clear_market(
        community, build_gamma(PolicySpec(UNIQUE, 29.05), community), config=cfg)
    distance = clear_market(
        community,
        build_gamma(PolicySpec(DISTANCE, 9.877), community, network=network),
        config=cfg)
    assert free.converged and unique.converged and distance.converged

    def volume(result):
        return float(result.net_powers[result.net_powers > 0].sum())

    assert volume(unique) < volume(free)
    assert active_trade_count(distance) <= len(community.producers) + len(community.consumers) - 1
