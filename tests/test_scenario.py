from __future__ import annotations

import shutil

import pytest

from conftest import AGENTS_FILE, DATA_DIR, NETWORK_FILE
from peermarket import DISTANCE, FREE, UNIQUE, ZONAL, ValidationError, load_scenario


def write_scenario(tmp_path, body, name="case.ini"):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


MINIMAL = f"""\
[network]
path = {NETWORK_FILE}

[agents]
path = {AGENTS_FILE}

[policy]
kind = free
"""


def test_bundled_free_scenario():
    scenario = load_scenario(str(DATA_DIR / "free.ini"))
    assert scenario.policy.kind == FREE
    assert scenario.solver.eps_primal == 1e-3
    assert scenario.solver.max_iterations == 60000
    assert scenario.network_path.endswith("new_england.net")


def test_bundled_priced_scenarios():
    unique = load_scenario(str(DATA_DIR / "unique.ini"))
    assert (unique.policy.kind, unique.policy.fee) == (UNIQUE, 29.0)
    distance = load_scenario(str(DATA_DIR / "distance.ini"))
    assert distance.policy.kind == DISTANCE
    assert distance.policy.metric == "power_transfer"
    zonal = load_scenario(str(DATA_DIR / "zonal.ini"))
    assert (zonal.policy.kind, zonal.policy.fee) == (ZONAL, 29.0)


def test_minimal_scenario(tmp_path):
    scenario = load_scenario(write_scenario(tmp_path, MINIMAL))
    assert scenario.policy.kind == FREE
    assert scenario.policy.fee == 0.0
    assert scenario.solver.max_iterations == 20000
    assert scenario.verify is False


def test_relative_paths_resolve_against_file(tmp_path):
    shutil.copy(NETWORK_FILE, tmp_path / "grid.net")
    shutil.copy(AGENTS_FILE, tmp_path / "agents.csv")
    body = "[network]\npath = grid.net\n\n[agents]\npath = agents.csv\n\n" \
           "[policy]\nkind = free\n"
    scenario = load_scenario(write_scenario(tmp_path, body))
    assert scenario.network_path == str(tmp_path / "grid.net")
    assert scenario.agents_path == str(tmp_path / "agents.csv")


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ValidationError, match="unknown section"):
        load_scenario(write_scenario(tmp_path, MINIMAL + "\n[plotting]\nstyle = bold\n"))


def test_unknown_key_rejected(tmp_path):
    body = MINIMAL.replace("kind = free", "kind = free\ncolour = red")
    with pytest.raises(ValidationError, match="colour"):
        load_scenario(write_scenario(tmp_path, body))


def test_solver_typo_rejected(tmp_path):
    body = MINIMAL + "\n[solver]\neps_priml = 1e-3\n"
    with pytest.raises(ValidationError, match="eps_priml"):
        load_scenario(write_scenario(tmp_path, body))


def test_missing_referenced_file(tmp_path):
    body = MINIMAL.replace(NETWORK_FILE, str(tmp_path / "nowhere.net"))
    with pytest.raises(ValidationError, match="not found"):
        load_scenario(write_scenario(tmp_path, body))


def test_missing_policy_kind(tmp_path):
    body = MINIMAL.replace("[policy]\nkind = free\n", "")
    with pytest.raises(ValidationError, match="kind"):
        load_scenario(write_scenario(tmp_path, body))


def test_version_checked(tmp_path):
    body = "[scenario]\nversion = 2\n\n" + MINIMAL
    with pytest.raises(ValidationError, match="version"):
        load_scenario(write_scenario(tmp_path, body))


def test_solver_overrides(tmp_path):
    body = MINIMAL + "\n[solver]\nrho = 0.02\nmax_iterations = 500\n"
    scenario = load_scenario(write_scenario(tmp_path, body))
    assert scenario.solver.rho == 0.02
    assert scenario.solver.max_iterations == 500


def test_uniform_zone_fees_accepted(tmp_path):
    body = MINIMAL.replace("kind = free", "kind = zonal\nzone_fees = 5, 5, 5, 5")
    scenario = load_scenario(write_scenario(tmp_path, body))
    assert scenario.policy.kind == ZONAL
    assert scenario.policy.fee == 5.0


def test_differentiated_zone_fees_rejected(tmp_path):
    body = MINIMAL.replace("kind = free", "kind = zonal\nzone_fees = 5, 6, 5, 5")
    with pytest.raises(ValidationError, match="uniform"):
        load_scenario(write_scenario(tmp_path, body))


def test_zone_fees_exclusive_with_fee(tmp_path):
    body = MINIMAL.replace("kind = free", "kind = zonal\nfee = 5\nzone_fees = 5, 5")
    with pytest.raises(ValidationError, match="not both"):
        load_scenario(write_scenario(tmp_path, body))


def test_zone_fees_require_zonal_kind(tmp_path):
    body = MINIMAL.replace("kind = free", "kind = unique\nzone_fees = 5, 5")
    with pytest.raises(ValidationError):
        load_scenario(write_scenario(tmp_path, body))


def test_metric_requires_distance_kind(tmp_path):
    body = MINIMAL.replace("kind = free", "kind = unique\nmetric = thevenin")
    with pytest.raises(ValidationError, match="metric"):
        load_scenario(write_scenario(tmp_path, body))


def test_output_section(tmp_path):
    body = MINIMAL + "\n[output]\ndir = results\nverify = true\n"
    scenario = load_scenario(write_scenario(tmp_path, body))
    assert scenario.output_dir == str(tmp_path / "results")
    assert scenario.verify is True


def test_missing_file_is_oserror(tmp_path):
    with pytest.raises(OSError):
        load_scenario(str(tmp_path / "absent.ini"))
