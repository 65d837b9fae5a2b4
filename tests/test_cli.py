import json
import time
from pathlib import Path

import pytest

from meanfield_ldp import cli
from meanfield_ldp.cost import InfeasibleTrajectoryError

CONFIG_DIR = Path(__file__).resolve().parents[1] / "scripts" / "configs"


def write_cfg(tmp_path: Path, body: str, name: str = "exp.cfg") -> Path:
    f = tmp_path / name
    f.write_text(body)
    return f


RATE_CURVE = """
[model]
model = mm1
lambda_f = 1
lambda_b = 2
z_max = 25

[experiment]
experiment = rate_curve
output_dir = {out}
seed = 3
n_list = 10,20
samples_per_n = 5000
event = ball_delta0
radius = 0.3
"""


def test_validate_ok(tmp_path):
    cfg = write_cfg(tmp_path, RATE_CURVE.format(out=tmp_path / "out"))
    assert cli.validate(cfg) == []


def test_validate_flags_zero_N(tmp_path):
    bad = RATE_CURVE.replace("n_list = 10,20", "n_list = 0,20")
    cfg = write_cfg(tmp_path, bad.format(out=tmp_path / "out"))
    problems = cli.validate(cfg)
    assert any("n_list" in p for p in problems)


def test_validate_flags_unknown_key(tmp_path):
    bad = RATE_CURVE + "banana = 1\n"
    cfg = write_cfg(tmp_path, bad.format(out=tmp_path / "out"))
    problems = cli.validate(cfg)
    assert any("unknown key" in p for p in problems)


def test_validate_counterexample_needs_noninteracting(tmp_path):
    body = """
[model]
model = interacting_wlan
kappa = 0.5
z_max = 20

[experiment]
experiment = counterexample
output_dir = {out}
k_list = 20,40
"""
    cfg = write_cfg(tmp_path, body.format(out=tmp_path / "out"))
    problems = cli.validate(cfg)
    assert any("non-interacting" in p for p in problems)


def test_validate_flags_unstable_model(tmp_path):
    out = tmp_path / "out"
    unstable = RATE_CURVE.replace("lambda_f = 1", "lambda_f = 2") \
                         .replace("lambda_b = 2", "lambda_b = 1")
    cfg = write_cfg(tmp_path, unstable.format(out=out))
    assert any("no stationary law" in p for p in cli.validate(cfg))
    assert cli.run(cfg, threads=1) == 2
    assert not out.exists()


def test_validate_flags_small_window(tmp_path):
    out = tmp_path / "out"
    small = RATE_CURVE.replace("z_max = 25", "z_max = 5")
    cfg = write_cfg(tmp_path, small.format(out=out))
    assert any("z_max >= 10" in p for p in cli.validate(cfg))
    assert cli.run(cfg, threads=1) == 2
    assert not out.exists()


@pytest.mark.parametrize("name", ["mve_audit", "quasipotential_bounds",
                                  "tightness_audit"])
def test_validate_flags_small_window_of_equilibrium_experiments(tmp_path, name):
    body = (CONFIG_DIR / f"{name}.cfg").read_text()
    lines = [ln for ln in body.splitlines() if not ln.startswith("z_max")]
    lines.insert(lines.index("[experiment]") - 1, "z_max = 9")
    cfg = write_cfg(tmp_path, "\n".join(lines) + "\n")
    assert any("z_max >= 10" in p for p in cli.validate(cfg))


def _bundled_with(tmp_path: Path, name: str, settings: dict,
                  out: Path) -> Path:
    """The bundled config ``name`` writing to ``out``, with ``settings``."""
    lines = [f"output_dir = {out}" if ln.startswith("output_dir") else ln
             for ln in (CONFIG_DIR / f"{name}.cfg").read_text().splitlines()
             if ln.split("=")[0].strip() not in settings]
    # [experiment] is the last section of the bundled configs
    lines += [f"{key} = {value}" for key, value in settings.items()]
    return write_cfg(tmp_path, "\n".join(lines) + "\n")


@pytest.mark.parametrize("name, settings, problem", [
    ("mve_audit", {"delta": "0"}, "delta > 0"),
    ("mve_audit", {"n_samples": "0", "m": "0.01"}, "n_samples >= 1"),
    ("mve_audit", {"threshold": "-1"}, "threshold > 0"),
    # interacting_wlan's default burn-in is 20 / lambda_lower = 20
    ("tightness_audit", {"horizon": "15"}, "horizon above the burn-in"),
    ("tightness_audit", {"horizon": "30", "burn_in": "40"},
     "horizon above the burn-in"),
    ("quasipotential_bounds", {"m": "0"}, "m > 0"),
    # up to 6 random segments of at least 0.08 each
    ("duality_check", {"t_max": "0.47"}, "t_max >= 0.48"),
    ("counterexample", {"t": "0"}, "t > 0"),
], ids=["zero_delta", "no_samples", "negative_threshold",
        "default_burn_in_past_horizon", "burn_in_past_horizon",
        "zero_corpus_cap", "short_duality_horizon", "zero_horizon"])
def test_validate_flags_settings_that_cannot_run(tmp_path, name, settings,
                                                 problem):
    out = tmp_path / "out"
    cfg = _bundled_with(tmp_path, name, settings, out)
    assert any(problem in p for p in cli.validate(cfg))
    assert cli.run(cfg, threads=1) == 2
    assert not out.exists()


def test_run_corpus_cap_below_equilibrium_floor_exit3(tmp_path, capsys):
    """Every corpus target holds 0.6 of the equilibrium, whose theta-moment
    on interacting_wlan(0.5) is 0.3334: a cap of 0.1 admits no target, so
    the run stops at once instead of drawing forever."""
    out = tmp_path / "out"
    cfg = _bundled_with(tmp_path, "quasipotential_bounds", {"m": "0.1"}, out)
    assert cli.validate(cfg) == []
    t0 = time.monotonic()
    assert cli.run(cfg, threads=1) == 3
    assert time.monotonic() - t0 < 10.0
    assert "floor 0.2001" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("config", sorted(CONFIG_DIR.glob("*.cfg")),
                         ids=lambda p: p.stem)
def test_bundled_configs_validate(config):
    assert cli.validate(config) == []


def test_validate_missing_file(tmp_path):
    assert cli.validate(tmp_path / "nope.cfg")


def test_run_rate_curve_and_manifest(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, RATE_CURVE.format(out=out))
    assert cli.run(cfg, threads=1) == 0
    assert (out / "rate_curve.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 3
    assert manifest["rng_algorithm"] == "philox4x64"
    assert manifest["config"]["model"]["model"] == "mm1"
    assert "wall_time_s" in manifest


def test_rerun_byte_identical_csv(tmp_path):
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    cfg1 = write_cfg(tmp_path, RATE_CURVE.format(out=out1), "a.cfg")
    cfg2 = write_cfg(tmp_path, RATE_CURVE.format(out=out2), "b.cfg")
    assert cli.run(cfg1, threads=1) == 0
    assert cli.run(cfg2, threads=4) == 0
    assert (out1 / "rate_curve.csv").read_bytes() \
        == (out2 / "rate_curve.csv").read_bytes()


def test_run_malformed_config_no_partial_output(tmp_path):
    out = tmp_path / "out"
    bad = RATE_CURVE.replace("n_list = 10,20", "n_list = ")
    cfg = write_cfg(tmp_path, bad.format(out=out))
    assert cli.run(cfg) == 2
    assert not out.exists()


def test_run_numeric_failure_exit3(tmp_path, monkeypatch):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, RATE_CURVE.format(out=out))

    def boom(*a, **kw):
        raise InfeasibleTrajectoryError("forced")

    monkeypatch.setitem(cli._RUNNERS, "rate_curve", boom)
    assert cli.run(cfg) == 3
    assert not out.exists()


def test_run_overwrites_previous_run(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, RATE_CURVE.format(out=out))
    assert cli.run(cfg, threads=1) == 0
    assert cli.run(cfg, threads=1) == 0  # previous run is replaceable


def test_run_refuses_foreign_directory(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "precious.txt").write_text("do not clobber")
    cfg = write_cfg(tmp_path, RATE_CURVE.format(out=out))
    assert cli.run(cfg) == 2
    assert (out / "precious.txt").exists()


def test_output_override(tmp_path):
    out = tmp_path / "other"
    cfg = write_cfg(tmp_path, RATE_CURVE.format(out=tmp_path / "unused"))
    assert cli.run(cfg, output_override=str(out)) == 0
    assert (out / "manifest.json").exists()
    assert not (tmp_path / "unused").exists()


def test_duality_check_experiment(tmp_path):
    body = """
[model]
model = wlan_const
lambda_f = 1
lambda_b = 1
z_max = 8

[experiment]
experiment = duality_check
output_dir = {out}
seed = 2
n_trajectories = 2
t_max = 1.0
"""
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, body.format(out=out))
    assert cli.run(cfg, threads=1) == 0
    lines = (out / "duality.csv").read_text().splitlines()
    assert lines[0] == "trajectory,variational,nonvariational_recovered,abs_gap"
    assert len(lines) == 3
    for ln in lines[1:]:
        assert float(ln.split(",")[-1]) < 1e-5


def test_mve_audit_experiment(tmp_path):
    body = """
[model]
model = interacting_wlan
kappa = 0.5
z_max = 25

[experiment]
experiment = mve_audit
output_dir = {out}
seed = 1
m = 5
horizon = 30
n_samples = 2
threshold = 1e-3
delta = 0.05
"""
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, body.format(out=out))
    assert cli.run(cfg, threads=1) == 0
    audit = json.loads((out / "audit.json").read_text())
    assert audit["passed"] is True
    assert "consistent" in audit["verdict"]
    assert (out / "b2_gaps.csv").exists()
    assert (out / "equilibrium.csv").exists()


def test_version_and_validate_cli(tmp_path, capsys):
    assert cli.main(["version"]) == 0
    assert capsys.readouterr().out.strip()
    cfg = write_cfg(tmp_path, RATE_CURVE.format(out=tmp_path / "out"))
    assert cli.main(["validate", str(cfg)]) == 0
    assert "ok" in capsys.readouterr().out
