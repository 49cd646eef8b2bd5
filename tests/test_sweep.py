from __future__ import annotations

import pytest

from peermarket import (
    FREE,
    MAX_RATE_TARGET,
    REVENUE_TARGET,
    PolicySpec,
    SolverConfig,
    SweepRecord,
    UNIQUE,
    ValidationError,
    build_gamma,
    clear_market,
    recommend_fee,
    run_sweep,
)
from peermarket.reports import read_sweep, write_sweep


def record(fee, max_rate, converged=True, gamma_so=0.0, avg_rate=None):
    return SweepRecord(fee=fee, converged=converged, iterations=100,
                       volume=1000.0 - fee, gamma_so=gamma_so,
                       interzone=500.0, avg_rate=avg_rate or max_rate / 2.0,
                       max_rate=max_rate, max_line=(16, 19))


def test_grid_must_increase(community, network):
    policy = PolicySpec(UNIQUE)
    with pytest.raises(ValidationError, match="increasing"):
        run_sweep(community, network, policy, [0.0, 10.0, 10.0])
    with pytest.raises(ValidationError, match="empty"):
        run_sweep(community, network, policy, [])


@pytest.mark.parametrize("fees", [[-5.0, 0.0], [0.0, float("inf")], [float("nan")]])
def test_grid_fees_must_be_finite_and_nonnegative(community, network, fees):
    with pytest.raises(ValidationError, match="network fee must be nonnegative and finite"):
        run_sweep(community, network, PolicySpec(UNIQUE), fees)


def test_free_policy_not_sweepable(community, network):
    with pytest.raises(ValidationError):
        run_sweep(community, network, PolicySpec(FREE), [0.0, 1.0])


def test_sweep_point_matches_single_run(community, network):
    config = SolverConfig()
    records = run_sweep(community, network, PolicySpec(UNIQUE), [10.0], config=config)
    assert len(records) == 1
    gamma = build_gamma(PolicySpec(UNIQUE, 10.0), community)
    single = clear_market(community, gamma, config)
    assert records[0].converged == single.converged
    assert records[0].iterations == single.iterations
    volume = float(single.net_powers[single.net_powers > 0].sum())
    assert records[0].volume == volume


def test_rates_out_collects_distributions(community, network):
    collected = []
    run_sweep(community, network, PolicySpec(UNIQUE), [0.0, 10.0],
              rates_out=collected)
    assert [fee for fee, _ in collected] == [0.0, 10.0]
    assert all(len(rates) == len(network.lines) for _, rates in collected)


def test_recommend_boundary_fee_zero():
    records = [record(0.0, 0.9), record(10.0, 0.7)]
    rec = recommend_fee(records, MAX_RATE_TARGET, value=1.0)
    assert rec.fee == 0.0
    assert rec.max_rate == 0.9


def test_recommend_interpolates():
    records = [record(0.0, 1.2, gamma_so=0.0), record(10.0, 0.8, gamma_so=4000.0)]
    rec = recommend_fee(records, MAX_RATE_TARGET, value=1.0)
    assert rec.fee == pytest.approx(5.0)
    assert rec.max_rate == 1.0
    assert rec.gamma_so == pytest.approx(2000.0)
    assert rec.volume == pytest.approx(995.0)


def test_recommend_monotone_in_target():
    records = [record(0.0, 1.2), record(10.0, 0.8), record(20.0, 0.5)]
    fees = [recommend_fee(records, MAX_RATE_TARGET, value=v).fee
            for v in (1.1, 1.0, 0.9, 0.6)]
    # a stricter rate target never lowers the recommended fee
    assert fees == sorted(fees)


def test_recommend_out_of_range():
    records = [record(0.0, 1.2), record(10.0, 0.8)]
    with pytest.raises(ValidationError, match=r"\[0.8, 1.2\]"):
        recommend_fee(records, MAX_RATE_TARGET, value=0.5)


def test_recommend_skips_unconverged():
    records = [record(0.0, 1.2), record(5.0, 1.0, converged=False), record(10.0, 0.8)]
    rec = recommend_fee(records, MAX_RATE_TARGET, value=0.9)
    assert 0.0 < rec.fee < 10.0
    with pytest.raises(ValidationError):
        recommend_fee([record(0.0, 1.2, converged=False)], MAX_RATE_TARGET, value=1.2)


def test_recommend_revenue_prefers_smallest_fee_on_ties():
    records = [record(0.0, 1.2, gamma_so=100.0), record(10.0, 0.8, gamma_so=100.0),
               record(20.0, 0.5, gamma_so=50.0)]
    rec = recommend_fee(records, REVENUE_TARGET)
    assert rec.fee == 0.0


def test_recommend_requires_value_for_rate_target():
    with pytest.raises(ValidationError):
        recommend_fee([record(0.0, 1.2)], MAX_RATE_TARGET)


def test_unknown_target_rejected():
    with pytest.raises(ValidationError):
        recommend_fee([record(0.0, 1.2)], "social_welfare", value=1.0)


def test_sweep_table_round_trip(tmp_path):
    records = [record(0.0, 1.2), record(5.0, 1.0, converged=False), record(10.0, 0.8)]
    path = tmp_path / "sweep.csv"
    write_sweep(str(path), records)
    again = read_sweep(str(path))
    assert [r.fee for r in again] == [0.0, 5.0, 10.0]
    assert [r.converged for r in again] == [True, False, True]
    assert again[0].max_line == (16, 19)
    assert again[0].max_rate == pytest.approx(1.2)


def test_read_sweep_rejects_foreign_files(tmp_path):
    path = tmp_path / "junk.csv"
    path.write_text("fee,rate\n0,1\n")
    with pytest.raises(ValidationError):
        read_sweep(str(path))
