"""Grid cost allocation policies and fee accounting.

A policy turns a scalar network fee u into a matrix of product
differentiation prices gamma. gamma_nm is positive for producers and
negative for consumers, so gamma_nm * P_nm is a cost for every agent and the
system operator's revenue is always nonnegative. Costs are split equally
between the two sides of a trade, hence the /2 in every formula:

    unique    |gamma_nm| = u / 2
    distance  |gamma_nm| = u * d_nm / 2      (d_nm electrical distance)
    zonal     |gamma_nm| = u * N_nm / 2      (N_nm zones crossed)

The free policy is gamma = 0. Every gamma is the fee times the gamma at
u = 1, exactly in floating point (halving and a sign are exact), so a fee
sweep builds that unit matrix once and scales it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distances import METRICS, POWER_TRANSFER, distance_matrix, zone_crossing_matrix
from .errors import ValidationError

FREE = "free"
UNIQUE = "unique"
DISTANCE = "distance"
ZONAL = "zonal"
KINDS = (FREE, UNIQUE, DISTANCE, ZONAL)


@dataclass(frozen=True)
class PolicySpec:
    kind: str
    fee: float = 0.0
    metric: str = POWER_TRANSFER

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"unknown policy kind {self.kind!r}")
        if self.metric not in METRICS:
            raise ValidationError(f"unknown distance metric {self.metric!r}")
        check_fee(self.fee)
        if self.kind == FREE and self.fee != 0.0:
            raise ValidationError(f"the free policy takes no network fee, got {self.fee}")


def check_fee(fee):
    """Raise ValidationError unless the network fee is finite and nonnegative."""
    if not 0.0 <= fee < math.inf:  # also rejects NaN
        raise ValidationError(f"network fee must be nonnegative and finite, got {fee}")


def _agent_matrix(values, n, what):
    """``values`` as a finite, nonnegative n x n float array; no broadcasting."""
    message = f"{what} must be a finite, nonnegative {n} x {n} matrix"
    try:
        values = np.asarray(values, dtype=float)
    except ValueError:  # ragged nested lists
        raise ValidationError(message) from None
    if values.shape != (n, n) or not np.isfinite(values).all() or (values < 0).any():
        raise ValidationError(message)
    return values


def build_gamma(policy, community, network=None, distances=None, zone_counts=None):
    """Product differentiation price matrix for a community.

    The distance policy needs an agent distance matrix (or a network to
    compute one with policy.metric); the zonal policy needs a zone-crossing
    matrix (or a network), N x N, finite and nonnegative either way.
    Entries vanish outside the partnership mask.
    """
    n = len(community.agents)
    mask = community.partner_mask()
    if policy.kind == FREE:
        return np.zeros((n, n))
    if policy.kind == UNIQUE:
        magnitude = np.full((n, n), policy.fee / 2.0)
    elif policy.kind == DISTANCE:
        if distances is None:
            if network is None:
                raise ValidationError("distance policy needs a distance matrix or a network")
            distances = distance_matrix(community, network, policy.metric)
        magnitude = policy.fee * _agent_matrix(distances, n, "distances") / 2.0
    else:
        if zone_counts is None:
            if network is None:
                raise ValidationError("zonal policy needs zone counts or a network")
            zone_counts = zone_crossing_matrix(community, network)
        magnitude = policy.fee * _agent_matrix(zone_counts, n, "zone_counts") / 2.0
    return np.where(mask, community.sign[:, None] * magnitude, 0.0)


def perceived_price(y_nm, gamma_nm):
    """Price net of the grid charge: what the agent actually pays/receives."""
    return y_nm - gamma_nm


def total_collected(trades, gamma):
    """System operator revenue from differentiation prices over all trades."""
    return float(np.sum(np.asarray(gamma) * np.asarray(trades)))
