from __future__ import annotations

import numpy as np
import pytest

from peermarket import (
    CONSUMER,
    PRODUCER,
    ValidationError,
    build_community,
    load_agents,
    save_agents,
)
from peermarket.community import load_partners


def test_bundled_census(community):
    assert len(community) == 31
    assert len(community.consumers) == 21
    assert len(community.producers) == 10


def test_first_consumer_row(community):
    ag = community.agents[community.index_of(1)]
    assert (ag.bus, ag.role) == (1, CONSUMER)
    assert (ag.a, ag.b) == (0.067, 64.0)
    assert (ag.p_min, ag.p_max) == (-146.4, -9.76)


def test_first_producer_row(community):
    ag = community.agents[community.index_of(22)]
    assert (ag.bus, ag.role) == (30, PRODUCER)
    assert (ag.a, ag.b) == (0.089, 18.0)
    assert (ag.p_min, ag.p_max) == (0.0, 1040.0)


def test_consumer_bounds_scale_fixed_load(community):
    # agent 2 sits on a 322 MW load; flexibility spans 10% to 150% of it
    ag = community.agents[community.index_of(2)]
    assert ag.p_min == pytest.approx(-1.5 * 322.0)
    assert ag.p_max == pytest.approx(-0.1 * 322.0)


def test_default_partnership_is_bipartite(community):
    mask = community.partner_mask()
    assert np.array_equal(mask, mask.T)
    assert not mask.diagonal().any()
    opposite = community.sign[:, None] != community.sign[None, :]
    assert np.array_equal(mask, opposite)


def test_unknown_agent_rejected(community):
    with pytest.raises(ValidationError):
        community.index_of(99)


def test_round_trip(tmp_path, community):
    out = tmp_path / "agents.csv"
    save_agents(community, str(out))
    again = load_agents(str(out))
    assert again.agents == community.agents


def test_unknown_bus_reference_rejected(tmp_path, network):
    rows = [
        (1, 1, PRODUCER, 0.1, 20.0, 0.0, 0.0, 100.0),
        (2, 999, CONSUMER, 0.1, 80.0, 0.0, -100.0, 0.0),
    ]
    save_agents(build_community(rows), str(tmp_path / "bad.csv"))
    with pytest.raises(ValidationError, match="unknown bus"):
        load_agents(str(tmp_path / "bad.csv"), network=network)


def test_header_required(tmp_path):
    path = tmp_path / "noheader.csv"
    path.write_text("1,1,producer,0.1,20,0,0,100\n")
    with pytest.raises(ValidationError, match="header"):
        load_agents(str(path))


def test_producer_bounds_must_be_nonnegative():
    with pytest.raises(ValidationError):
        build_community([
            (1, 1, PRODUCER, 0.1, 20.0, 0.0, -5.0, 100.0),
            (2, 2, CONSUMER, 0.1, 80.0, 0.0, -100.0, 0.0),
        ])


def test_consumer_bounds_must_be_nonpositive():
    with pytest.raises(ValidationError):
        build_community([
            (1, 1, PRODUCER, 0.1, 20.0, 0.0, 0.0, 100.0),
            (2, 2, CONSUMER, 0.1, 80.0, 0.0, -100.0, 5.0),
        ])


def test_both_roles_required():
    with pytest.raises(ValidationError):
        build_community([
            (1, 1, PRODUCER, 0.1, 20.0, 0.0, 0.0, 100.0),
            (2, 2, PRODUCER, 0.1, 25.0, 0.0, 0.0, 100.0),
        ])


def test_duplicate_ids_rejected():
    with pytest.raises(ValidationError):
        build_community([
            (1, 1, PRODUCER, 0.1, 20.0, 0.0, 0.0, 100.0),
            (1, 2, CONSUMER, 0.1, 80.0, 0.0, -100.0, 0.0),
        ])


def test_nonpositive_curvature_rejected():
    with pytest.raises(ValidationError):
        build_community([
            (1, 1, PRODUCER, 0.0, 20.0, 0.0, 0.0, 100.0),
            (2, 2, CONSUMER, 0.1, 80.0, 0.0, -100.0, 0.0),
        ])


def test_infinite_curvature_rejected():
    with pytest.raises(ValidationError, match="coefficient a must be finite"):
        build_community([
            (1, 1, PRODUCER, float("inf"), 20.0, 0.0, 0.0, 100.0),
            (2, 2, CONSUMER, 0.1, 80.0, 0.0, -100.0, 0.0),
        ])


def test_nan_linear_cost_rejected():
    with pytest.raises(ValidationError, match="coefficient b must be finite"):
        build_community([
            (1, 1, PRODUCER, 0.1, float("nan"), 0.0, 0.0, 100.0),
            (2, 2, CONSUMER, 0.1, 80.0, 0.0, -100.0, 0.0),
        ])


def test_nan_fixed_cost_rejected():
    with pytest.raises(ValidationError, match="coefficient c must be finite"):
        build_community([
            (1, 1, PRODUCER, 0.1, 20.0, 0.0, 0.0, 100.0),
            (2, 2, CONSUMER, 0.1, 80.0, float("nan"), -100.0, 0.0),
        ])


def test_agents_file_with_nan_cost_rejected(tmp_path):
    path = tmp_path / "agents.csv"
    path.write_text("agent_id,bus,role,a,b,c,p_min,p_max\n"
                    "1,1,producer,0.1,nan,0,0,100\n"
                    "2,2,consumer,0.1,80,0,-100,0\n")
    with pytest.raises(ValidationError, match="coefficient b must be finite"):
        load_agents(str(path))


def test_explicit_partner_list():
    rows = [
        (1, 1, PRODUCER, 0.1, 20.0, 0.0, 0.0, 100.0),
        (2, 2, PRODUCER, 0.1, 25.0, 0.0, 0.0, 100.0),
        (3, 3, CONSUMER, 0.1, 80.0, 0.0, -100.0, 0.0),
    ]
    com = build_community(rows, partners=[(1, 3)])
    mask = com.partner_mask()
    assert mask[0, 2] and mask[2, 0]
    assert not mask[1, 2]


def test_partner_file_round_trip(tmp_path):
    path = tmp_path / "partners.csv"
    path.write_text("agent_id,partner_id\n1,3\n2,3\n")
    assert load_partners(str(path)) == [(1, 3), (2, 3)]


def test_self_partnership_rejected():
    rows = [
        (1, 1, PRODUCER, 0.1, 20.0, 0.0, 0.0, 100.0),
        (2, 2, CONSUMER, 0.1, 80.0, 0.0, -100.0, 0.0),
    ]
    with pytest.raises(ValidationError):
        build_community(rows, partners=[(1, 1)])
