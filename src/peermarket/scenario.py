"""Scenario files: one INI file describing a complete market experiment.

Grammar (version 1)::

    [scenario]            ; optional section
    version = 1

    [network]
    path = new_england.net

    [agents]
    path = new_england_agents.csv

    [policy]
    kind = free           ; free | unique | distance | zonal
    fee = 0.0             ; optional, euro/MW (/distance unit for distance)
    metric = power_transfer  ; optional, distance policy only
    zone_fees = 5, 5, 5, 5   ; optional, zonal only; must be uniform

    [solver]              ; optional, any SolverConfig field
    eps_primal = 1e-3

    [output]              ; optional
    dir = out
    verify = false

Relative paths are resolved against the scenario file's directory. Unknown
sections or keys are rejected so a typo cannot silently fall back to a
default. Per-zone fee lists are parsed for forward compatibility but only
uniform vectors are accepted; differentiated zonal fees are out of scope.
"""

from __future__ import annotations

import configparser
import dataclasses
import os
from dataclasses import dataclass

from .engine import SolverConfig
from .errors import ValidationError
from .policies import DISTANCE, PolicySpec, ZONAL

FORMAT_VERSION = 1

_SOLVER_FIELDS = {f.name: f for f in dataclasses.fields(SolverConfig)}
_SECTIONS = {
    "scenario": {"version"},
    "network": {"path"},
    "agents": {"path"},
    "policy": {"kind", "fee", "metric", "zone_fees"},
    "solver": set(_SOLVER_FIELDS),
    "output": {"dir", "verify"},
}


@dataclass(frozen=True)
class Scenario:
    network_path: str
    agents_path: str
    policy: PolicySpec
    solver: SolverConfig
    output_dir: str | None = None
    verify: bool = False


def _float(section, key, raw):
    try:
        return float(raw)
    except ValueError:
        raise ValidationError(f"[{section}] {key} = {raw!r} is not a number") from None


def _zone_fees(raw):
    fees = [_float("policy", "zone_fees", part) for part in raw.split(",")]
    if any(f < 0 for f in fees):
        raise ValidationError("[policy] zone_fees must be nonnegative")
    if len(set(fees)) > 1:
        raise ValidationError(
            "[policy] zone_fees must be uniform; differentiated zonal fees are not supported"
        )
    return fees[0]


def load_scenario(path):
    """Parse and validate a scenario file into a Scenario."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle, source=path)
    except OSError:
        raise
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ValidationError(f"{path}: malformed scenario file: {exc}") from None

    for section in parser.sections():
        if section not in _SECTIONS:
            raise ValidationError(f"{path}: unknown section [{section}]")
        for key in parser[section]:
            if key not in _SECTIONS[section]:
                raise ValidationError(f"{path}: unknown key {key!r} in [{section}]")

    if parser.has_option("scenario", "version"):
        version = parser.get("scenario", "version")
        if version.strip() != str(FORMAT_VERSION):
            raise ValidationError(f"{path}: unsupported scenario version {version!r}")

    for section in ("network", "agents"):
        if not parser.has_option(section, "path"):
            raise ValidationError(f"{path}: missing [{section}] path")
    base = os.path.dirname(os.path.abspath(path))
    network_path = os.path.join(base, parser.get("network", "path"))
    agents_path = os.path.join(base, parser.get("agents", "path"))
    for resolved in (network_path, agents_path):
        if not os.path.isfile(resolved):
            raise ValidationError(f"{path}: referenced file not found: {resolved}")

    if not parser.has_option("policy", "kind"):
        raise ValidationError(f"{path}: missing [policy] kind")
    kind = parser.get("policy", "kind").strip()
    fee = 0.0
    if parser.has_option("policy", "fee"):
        fee = _float("policy", "fee", parser.get("policy", "fee"))
    if parser.has_option("policy", "zone_fees"):
        if kind != ZONAL:
            raise ValidationError("[policy] zone_fees only applies to the zonal policy")
        if parser.has_option("policy", "fee"):
            raise ValidationError("[policy] give either fee or zone_fees, not both")
        fee = _zone_fees(parser.get("policy", "zone_fees"))
    spec_kwargs = {"kind": kind, "fee": fee}
    if parser.has_option("policy", "metric"):
        if kind != DISTANCE:
            raise ValidationError("[policy] metric only applies to the distance policy")
        spec_kwargs["metric"] = parser.get("policy", "metric").strip()
    policy = PolicySpec(**spec_kwargs)

    solver_kwargs = {}
    if parser.has_section("solver"):
        for key, raw in parser["solver"].items():
            value = _float("solver", key, raw)
            if key == "max_iterations":
                value = int(value)
            solver_kwargs[key] = value
    solver = SolverConfig(**solver_kwargs)

    output_dir = None
    verify = False
    if parser.has_section("output"):
        if parser.has_option("output", "dir"):
            output_dir = os.path.join(base, parser.get("output", "dir"))
        if parser.has_option("output", "verify"):
            try:
                verify = parser.getboolean("output", "verify")
            except ValueError:
                raise ValidationError("[output] verify must be a boolean") from None

    return Scenario(
        network_path=network_path,
        agents_path=agents_path,
        policy=policy,
        solver=solver,
        output_dir=output_dir,
        verify=verify,
    )
