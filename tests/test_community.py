from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import AGENTS_FILE, mutate, row_edits, write_rows
from peermarket import (
    CONSUMER,
    PRODUCER,
    Community,
    InfeasibleError,
    ValidationError,
    build_community,
    load_agents,
)
from peermarket.community import _transport, check_feasible


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


def test_unknown_bus_reference_rejected(tmp_path, network):
    path = tmp_path / "bad.csv"
    path.write_text("agent_id,bus,role,a,b,c,p_min,p_max\n"
                    "1,1,producer,0.1,20,0,0,100\n"
                    "2,999,consumer,0.1,80,0,-100,0\n")
    with pytest.raises(ValidationError, match="unknown bus"):
        load_agents(str(path), network=network)


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


@pytest.mark.parametrize("producer, consumer, name", [
    ((0.0, float("inf")), (-100.0, 0.0), "p_max"),
    ((float("nan"), 100.0), (-100.0, 0.0), "p_min"),
    ((0.0, 100.0), (float("-inf"), 0.0), "p_min"),
])
def test_non_finite_bound_rejected(producer, consumer, name):
    with pytest.raises(ValidationError, match=f"bound {name} must be finite"):
        build_community([
            (1, 1, PRODUCER, 0.1, 20.0, 0.0, *producer),
            (2, 2, CONSUMER, 0.1, 80.0, 0.0, *consumer),
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


@settings(max_examples=100, deadline=None)
@given(st.lists(st.booleans(), min_size=2, max_size=8).filter(lambda r: 0 < sum(r) < len(r)),
       st.data())
def test_pair_list_depends_only_on_the_partnerships(roles, data):
    # producers and consumers in any file order; the pair list lists the
    # seller side of every partnership in row-major (seller, buyer) order,
    # then the buyer side in the same order, whatever order, orientation
    # or repetition the partner list uses
    n = len(roles)
    rows = [(i + 1, i + 1, PRODUCER if producer else CONSUMER, 0.1, 50.0, 0.0,
             0.0 if producer else -10.0, 10.0 if producer else 0.0)
            for i, producer in enumerate(roles)]
    every = [(i + 1, j + 1) for i in range(n) for j in range(n) if roles[i] and not roles[j]]
    chosen = data.draw(st.lists(st.sampled_from(every), unique=True))
    com = build_community(rows, partners=chosen)
    listed = data.draw(st.permutations(chosen))
    flips = data.draw(st.lists(st.booleans(), min_size=len(listed), max_size=len(listed)))
    listed = [pair[::-1] if flip else pair for pair, flip in zip(listed, flips)]
    if listed:
        listed += data.draw(st.lists(st.sampled_from(listed), max_size=4))
    other = build_community(rows, partners=listed)
    assert np.array_equal(other.src, com.src) and np.array_equal(other.dst, com.dst)
    k = len(chosen)
    assert len(com.src) == 2 * k
    assert np.array_equal(com.dst[:k], com.src[k:]) and np.array_equal(com.src[:k], com.dst[k:])
    assert np.array_equal(com.seller, com.src[:k]) and np.array_equal(com.buyer, com.dst[:k])
    assert np.all(com.sign[com.seller] > 0)
    assert np.all(np.diff(com.seller * n + com.buyer) > 0)
    default, full = build_community(rows), build_community(rows, partners=every)
    assert np.array_equal(full.src, default.src) and np.array_equal(full.dst, default.dst)


def test_same_role_partnership_rejected():
    # consumers 2 and 3 can never trade with each other: of the 6 ordered
    # pairs these partnerships list, 2 would carry dead state
    rows = [
        (1, 1, PRODUCER, 0.1, 20.0, 0.0, 0.0, 100.0),
        (2, 2, CONSUMER, 0.1, 80.0, 0.0, -100.0, 0.0),
        (3, 3, CONSUMER, 0.1, 75.0, 0.0, -100.0, 0.0),
    ]
    with pytest.raises(ValidationError, match=r"\(2, 3\) joins two consumers"):
        build_community(rows, partners=[(1, 2), (1, 3), (2, 3)])


def test_self_partnership_rejected():
    rows = [
        (1, 1, PRODUCER, 0.1, 20.0, 0.0, 0.0, 100.0),
        (2, 2, CONSUMER, 0.1, 80.0, 0.0, -100.0, 0.0),
    ]
    with pytest.raises(ValidationError):
        build_community(rows, partners=[(1, 1)])


@st.composite
def transport_markets(draw):
    """2-8 agents of both roles with whole-MW bounds, often free to trade
    nothing, a random list of producer-consumer partnerships, and a
    whole-MW flow on a random subset of those pairs, as the community and
    that flow per partnership."""
    n = draw(st.integers(2, 8))
    producers = draw(st.integers(1, n - 1))
    rows = []
    for i in range(n):
        low = draw(st.just(0) | st.integers(0, 60))
        high = low + draw(st.integers(0, 60))
        bounds = (low, high) if i < producers else (-high, -low)
        rows.append((i + 1, i + 1, PRODUCER if i < producers else CONSUMER,
                     0.1, 50.0, 0.0, float(bounds[0]), float(bounds[1])))
    pairs = [(p + 1, c + 1) for p in range(producers) for c in range(producers, n)]
    com = build_community(rows, partners=draw(st.lists(st.sampled_from(pairs), unique=True)))
    k = len(com.seller)
    volume = draw(st.lists(st.integers(0, 40), min_size=k, max_size=k))
    return com, np.array(volume, dtype=float)


def linprog_feasible(com, pairs, lo, hi):
    """Whether scipy's HiGHS finds f >= 0 on the partnerships with totals in
    [lo, hi]."""
    optimize = pytest.importorskip("scipy.optimize")
    totals = np.zeros((len(com), len(pairs)))
    totals[com.seller[pairs], np.arange(len(pairs))] = 1.0
    totals[com.buyer[pairs], np.arange(len(pairs))] = -1.0
    if not len(pairs):
        return bool(np.all(lo <= 0.0) and np.all(hi >= 0.0))
    result = optimize.linprog(np.zeros(len(pairs)), A_ub=np.vstack((totals, -totals)),
                              b_ub=np.concatenate((hi, -lo)), bounds=(0, None),
                              method="highs")
    return result.status == 0


def check_flow(com, pairs, flow, lo, hi):
    """A flow of ``_transport``: skew, nonnegative where sold, zero off the
    listed partnerships, every total within [lo, hi] up to 1e-9 MW, and a
    vertex: the pairs that carry flow form a forest."""
    k = len(com.seller)
    assert np.array_equal(flow[k:], -flow[:k])
    listed = np.zeros(k, dtype=bool)
    listed[pairs] = True
    assert not flow[:k][~listed].any()
    assert np.all(flow[pairs] >= 0.0)
    totals = np.bincount(com.src, flow, len(com))
    assert np.all(totals >= lo - 1e-9) and np.all(totals <= hi + 1e-9)
    root = list(range(len(com)))

    def find(node):
        while root[node] != node:
            node = root[node]
        return node

    for pair in pairs[flow[pairs] > 0.0]:
        ends = find(com.seller[pair]), find(com.buyer[pair])
        assert ends[0] != ends[1], "the pairs that carry flow close a cycle"
        root[ends[0]] = ends[1]


def feasible(com):
    """Whether ``check_feasible`` accepts the community."""
    try:
        check_feasible(com)
    except InfeasibleError:
        return False
    return True


def split_market(bounds):
    """Producers 1, 2 and consumers 3, 4 with the given bounds, partnered
    1-3 and 2-4 only, as a market of ``transport_markets``."""
    rows = [(i + 1, i + 1, PRODUCER if i < 2 else CONSUMER, 0.1, 50.0, 0.0, float(lo), float(hi))
            for i, (lo, hi) in enumerate(bounds)]
    return build_community(rows, partners=[(1, 3), (2, 4)]), np.zeros(2)


@settings(max_examples=100, deadline=None)
@given(transport_markets())
@example(split_market([(15, 15), (0, 10), (-10, 0), (-10, 0)]))  # seller 1 too big for 3
@example(split_market([(0, 10), (0, 10), (-15, -15), (-10, 0)]))  # buyer 3 too big for 1
def test_check_feasible_agrees_with_linprog(market):
    # a flow on every partnered pair that keeps each agent within its
    # bounds exists exactly when check_feasible accepts the community; the
    # examples pass the aggregate test and fail one Hall condition each
    com, _ = market
    pairs = np.arange(len(com.seller))
    assert feasible(com) == linprog_feasible(com, pairs, com.p_min, com.p_max)


@settings(max_examples=100, deadline=None)
@given(transport_markets(), st.data())
def test_transport_agrees_with_linprog_on_totals(market, data):
    # the polish's question: given exact totals, a flow on a subset of the
    # pairs; the totals come from a flow on the pairs, so every pair may
    # carry them, and a subset may or may not. The maximum flow with each
    # agent's total as its cap meets every total exactly when one exists
    com, volume = market
    sold = np.arange(len(com.seller))
    totals = np.bincount(com.seller, volume, len(com)) - np.bincount(com.buyer, volume, len(com))
    keep = data.draw(st.lists(st.booleans(), min_size=len(sold), max_size=len(sold)))
    for pairs in (sold, sold[np.array(keep, dtype=bool)]):
        flow = _transport(com, pairs, np.abs(totals), 1e-9)
        met = np.abs(np.bincount(com.src, flow, len(com)) - totals).max() <= 1e-9
        assert met == linprog_feasible(com, pairs, totals, totals)
        check_flow(com, pairs, flow, np.minimum(totals, 0.0), np.maximum(totals, 0.0))
        if pairs is sold:
            assert met


# Tokens for the fuzz: garbage, non-finite and negative numbers, a huge
# integer, a duplicate id (1), an unknown bus (99), both roles, a stray
# quote, a NUL and a byte that is not UTF-8.
AGENT_ROWS = Path(AGENTS_FILE).read_text(encoding="utf-8").splitlines()
AGENT_TOKENS = ["x", "1.5.2", "nan", "inf", "-inf", "-0.1", "0", "1e400", "1", "99",
                "99999999999999999999", "producer", "consumer", '"', "\x00", "\udcff"]


@settings(max_examples=200, deadline=None)
@given(row_edits(AGENT_ROWS, AGENT_TOKENS))
def test_parser_fuzz_fails_only_with_validation_error(tmp_path_factory, network, edits):
    path = write_rows(tmp_path_factory.getbasetemp() / "mutated.csv",
                      mutate(AGENT_ROWS, edits, sep=","))
    try:
        community = load_agents(path, network=network)
    except ValidationError:
        return
    assert isinstance(community, Community)
    values = (community.a, community.b, community.c, community.p_min, community.p_max)
    assert np.isfinite(np.concatenate(values)).all()
