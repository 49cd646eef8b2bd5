"""Report formatting: fixed decimals and no signed zeros."""

from __future__ import annotations

import numpy as np
import pytest

from peermarket.network import Bus, Line, Network
from peermarket.powerflow import FlowResult
from peermarket.reports import fmt, write_metrics, write_powerflow


@pytest.mark.parametrize("value, text", [
    (0.0, "0.000000"),
    (-0.0, "0.000000"),
    (-1e-13, "0.000000"),
    (-4e-7, "0.000000"),
    (-2e-6, "-0.000002"),
    (12.5, "12.500000"),
])
def test_fmt_never_prints_negative_zero(value, text):
    assert fmt(value) == text


def test_reports_print_rounded_zero_unsigned(tmp_path):
    net = Network([Bus(1, 1), Bus(2, 1)], [Line(1, 1, 2, 0.1, 100.0)])
    flows = FlowResult(flows=np.array([-3e-13]), rates=np.array([3e-15]), lines=net.lines)
    write_powerflow(tmp_path / "powerflow.csv", net, flows)
    assert (tmp_path / "powerflow.csv").read_text().splitlines()[2] == "1,2,0.000000,0.000000"
    write_metrics(tmp_path / "metrics.txt", [("market.balance_mw", fmt(-1e-9))])
    assert (tmp_path / "metrics.txt").read_text() == (
        "# peermarket metrics v3\nmarket.balance_mw = 0.000000\n")
