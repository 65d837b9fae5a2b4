import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from meanfield_ldp import cli, cost
from meanfield_ldp.cost import InfeasibleTrajectoryError
from meanfield_ldp.models import EdgeKind
from meanfield_ldp.simulator import AbsorbingStateError, TruncationOverflowError

ROOT = Path(__file__).resolve().parents[1]
CONFIG_DIR = ROOT / "scripts" / "configs"


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


# the keys that _bundled_with writes into [model]
MODEL_SECTION_KEYS = {"model", "lambda_f", "lambda_b", "kappa", "z_max"}


def _bundled_with(tmp_path: Path, name: str, settings: dict,
                  out: Path) -> Path:
    """The bundled config ``name`` writing to ``out``, with ``settings``;
    a setting of None drops the key."""
    lines = [f"output_dir = {out}" if ln.startswith("output_dir") else ln
             for ln in (CONFIG_DIR / f"{name}.cfg").read_text().splitlines()
             if ln.split("=")[0].strip() not in settings]
    set_lines = {key: f"{key} = {value}" for key, value in settings.items()
                 if value is not None}
    at = lines.index("[model]") + 1
    lines[at:at] = [ln for key, ln in set_lines.items()
                    if key in MODEL_SECTION_KEYS]
    # [experiment] is the last section of the bundled configs
    lines += [ln for key, ln in set_lines.items()
              if key not in MODEL_SECTION_KEYS]
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
    ("rate_curve", {"radius": "-0.1"}, "rate_curve needs radius > 0"),
    ("rate_curve", {"event": "not_in_km", "m": "-1"}, "not_in_km needs m > 0"),
    ("tightness_audit", {"radius": "0"}, "tightness_audit needs radius > 0"),
    ("duality_check", {"seed": "abc"}, "bad seed value 'abc'"),
    ("rate_curve", {"seed": "2.5"}, "bad seed value '2.5'"),
    ("duality_check", {"seed": "-1"}, "duality_check needs seed >= 0, got -1"),
    ("quasipotential_bounds", {"refine": "banana"},
     "bad refine value 'banana'"),
    ("tightness_audit", {"burn_in": "-3"},
     "tightness_audit needs burn_in >= 0, got -3"),
    ("rate_curve", {"kappa": "0.9"}, "unknown key 'kappa' for model mm1"),
    ("duality_check", {"z_max": "0"}, "duality_check needs z_max >= 1, got 0"),
    ("duality_check", {"t_max": "inf"}, "bad t_max value 'inf'"),
    # each rate_curve event reads one of radius and m
    ("rate_curve", {"event": "not_in_km", "radius": "0.3"},
     "rate_curve with event not_in_km takes no radius"),
    ("rate_curve", {"m": "4"}, "rate_curve with event ball_delta0 takes no m"),
    # the staging directory is named after the output directory
    ("rate_curve", {"output_dir": "."}, "bad output_dir value '.'"),
    # sampled curves read samples_per_n; an interacting curve runs each N
    # for a fixed time and would ignore it
    ("rate_curve", {"samples_per_n": None}, "rate_curve needs samples_per_n"),
    ("rate_curve", {"model": "interacting_wlan", "lambda_f": None,
                    "lambda_b": None},
     "rate_curve on an interacting model takes no samples_per_n"),
], ids=["zero_delta", "no_samples", "negative_threshold",
        "default_burn_in_past_horizon", "burn_in_past_horizon",
        "zero_corpus_cap", "short_duality_horizon", "zero_horizon",
        "negative_ball_radius", "negative_km_cap", "zero_tightness_radius",
        "word_seed", "fractional_seed", "negative_seed", "word_refine",
        "negative_burn_in", "kappa_on_mm1", "empty_duality_window",
        "infinite_duality_horizon", "radius_on_not_in_km", "m_on_ball_event",
        "nameless_output_dir", "missing_samples", "samples_on_interacting"])
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


def test_percent_sign_is_literal(tmp_path):
    out = tmp_path / "100%"
    cfg = write_cfg(tmp_path, RATE_CURVE.format(out=out))
    assert cli.load_config(cfg).output_dir == out


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


@pytest.mark.parametrize("error", [TruncationOverflowError,
                                   AbsorbingStateError])
def test_run_labels_simulator_failures_numeric(tmp_path, monkeypatch, capsys,
                                               error):
    """A window too small for the run, or a chain with no way out, is a
    numeric failure of the run, not a fault of the program."""
    out = tmp_path / "out"
    cfg = _bundled_with(tmp_path, "tightness_audit", {}, out)

    def boom(*a, **kw):
        raise error("forced")

    monkeypatch.setattr(cli, "estimate_invariant_multi", boom)
    assert cli.run(cfg, threads=1) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "numeric_failure"
    assert err["reason"] == f"{error.__name__}: forced"
    assert not out.exists()


def test_run_interacting_rate_curve_without_samples(tmp_path):
    """An interacting rate curve validates and runs without
    samples_per_n."""
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, f"""
[model]
model = interacting_wlan
kappa = 0.5
z_max = 10

[experiment]
experiment = rate_curve
output_dir = {out}
n_list = 10
event = not_in_km
m = 1
""")
    assert cli.validate(cfg) == []
    assert cli.run(cfg, threads=1) == 0
    assert (out / "rate_curve.csv").read_text().count("not_in_KM(M=1)") == 1


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


@pytest.mark.parametrize("output", [".", "..", "/", "", "run/.."])
def test_run_refuses_an_output_that_names_no_directory(tmp_path, monkeypatch,
                                                       capsys, output):
    """--output takes the output_dir check: a path whose last component
    names no directory exits 2 before anything is written."""
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, RATE_CURVE.format(out=tmp_path / "unused"))
    assert cli.main(["run", str(cfg), "--output", output]) == 2
    assert f"bad --output value {output!r}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == [cfg.name]


DUALITY = """
[model]
model = {model}
lambda_f = 1
lambda_b = {lambda_b}
z_max = 8

[experiment]
experiment = duality_check
output_dir = {out}
seed = 2
n_trajectories = 2
t_max = 1.0
"""


def _check_duality(tmp_path: Path, model: str, lambda_b: int) -> None:
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, DUALITY.format(model=model, lambda_b=lambda_b,
                                             out=out))
    assert cli.run(cfg, threads=1) == 0
    lines = (out / "duality.csv").read_text().splitlines()
    assert lines[0] == "trajectory,variational,nonvariational_recovered,abs_gap"
    assert len(lines) == 3
    for ln in lines[1:]:
        assert float(ln.split(",")[-1]) < 1e-5


def test_duality_check_experiment(tmp_path):
    _check_duality(tmp_path, "wlan_const", 1)


def test_birth_death_duality_check_runs_no_newton(tmp_path, monkeypatch):
    """Birth-death nodes take the closed-form dual: an mm1 duality check
    runs with the Newton solver refusing them."""
    newton = cost._dual_chunk

    def resets_only(model, *args):
        if model.kind is EdgeKind.BIRTH_DEATH:
            raise AssertionError("a birth-death node entered Newton ascent")
        return newton(model, *args)

    monkeypatch.setattr(cost, "_dual_chunk", resets_only)
    _check_duality(tmp_path, "mm1", 2)


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


def test_mve_audit_writes_null_for_an_unreached_K_delta(tmp_path):
    """At delta = 1e-12 the flow from delta_0 never enters K(delta), and
    audit.json holds null there, in JSON that a strict parser reads."""
    out = tmp_path / "out"
    cfg = _bundled_with(tmp_path, "mve_audit", {
        "delta": "1e-12", "n_samples": "1", "horizon": "5"}, out)
    assert cli.run(cfg, threads=1) == 0

    def refuse(name):
        raise ValueError(f"non-JSON constant {name}")

    audit = json.loads((out / "audit.json").read_text(),
                       parse_constant=refuse)
    assert audit["time_to_KDelta_from_delta0"] is None


def test_version_and_validate_cli(tmp_path, capsys):
    assert cli.main(["version"]) == 0
    assert capsys.readouterr().out.strip()
    cfg = write_cfg(tmp_path, RATE_CURVE.format(out=tmp_path / "out"))
    assert cli.main(["validate", str(cfg)]) == 0
    assert "ok" in capsys.readouterr().out


@pytest.mark.parametrize("threads", ["0", "-3", "two"])
def test_run_rejects_threads_below_one(tmp_path, capsys, threads):
    cfg = write_cfg(tmp_path, RATE_CURVE.format(out=tmp_path / "out"))
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", str(cfg), "--threads", threads])
    assert exc.value.code == 2
    assert "positive integer" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_all_refuses_unknown_only(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_all.py"), "--only",
         "banana", "--output-root", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 2
    assert "invalid choice: 'banana'" in done.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("threads", ["-3", "0"])
def test_run_all_refuses_non_positive_threads(tmp_path, threads):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_all.py"), "--threads",
         threads, "--only", "counterexample", "--output-root",
         str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 2
    assert "expected a positive integer" in done.stderr
    assert not (tmp_path / "out").exists()


_IMPORT_PROBE = """
import sys
import numpy as np
from meanfield_ldp.cli import _random_feasible_trajectory
from meanfield_ldp.cost import _recover, cost_variational, evolve
from meanfield_ldp.models import mm1_model
model = mm1_model(1.0, 2.0)
traj = _random_feasible_trajectory(model, np.random.default_rng(0), 4, 0.5)
path = evolve(traj)
cost_variational(model, [path])
_recover(model, [path], None)
print(sorted(m for m in sys.modules
             if m.split(".")[:2] in (["numpy", "polynomial"], ["numpy", "ma"])))
"""


def test_cost_layer_imports_no_numpy_polynomial_or_ma():
    """Each of these numpy subpackages has added to the benchmark's peak
    RSS when something in the CLI's import chain pulled it in."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-W", "ignore", "-c", _IMPORT_PROBE],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
