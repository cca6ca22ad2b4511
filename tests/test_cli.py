import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import oracles
import qcharm
from qcharm import DomainError, report
from qcharm.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, build_parser, main


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


# Runs in a fresh interpreter in which importing scipy fails: calls every
# public function of qcharm once, then prints the scipy modules loaded.
_NUMPY_ONLY_SCRIPT = """
import sys


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(name + " is not a runtime dependency")
        return None


sys.meta_path.insert(0, NoScipy())

import inspect
import math

import numpy as np

import qcharm as q
from qcharm.cli import main

ell = q.build_curve(q.ellipse(1.2, 0.8), 128)
affine = q.make_scenario("affine", c=0.2)
bm = affine.boundary
inputs = q.BoundInputs(K=1.5, mu=0.5, upsilon=1.0, lam=1.5, c_gamma=1.0, length=6.3)
calls = {
    "arc_length_reparametrize": lambda: q.arc_length_reparametrize(ell),
    "boundary_jacobian_bound": lambda: q.boundary_jacobian_bound(bm, 0.3, mu=0.5),
    "build_curve": lambda: q.build_curve(q.circle(), 64),
    "chord_arc_constant": lambda: q.chord_arc_constant(ell),
    "chord_tangent_kernel": lambda: q.chord_tangent_kernel(ell, 0.1, 2.0),
    "circle": lambda: q.circle(2.0),
    "compute_curve_constants": lambda: q.compute_curve_constants(ell, mu=0.5),
    "curve_length": lambda: q.curve_length(ell),
    "dini_modulus_table": lambda: q.dini_modulus_table(ell, [0.5, 1.0, 2.0]),
    "ellipse": lambda: q.ellipse(2.0, 1.0),
    "fourier_curve": lambda: q.fourier_curve([[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]),
    "gradient_frames": lambda: q.gradient_frames(bm, [0.3j, 0.5]),
    "holder_derivative_constant": lambda: q.holder_derivative_constant(ell, 0.5),
    "isoperimetric_check": lambda: q.isoperimetric_check(bm, upsilon=math.pi),
    "isoperimetric_coefficient": lambda: q.isoperimetric_coefficient("qc_harmonic", K=1.5),
    "kernel_bound_dini": lambda: q.kernel_bound_dini(ell, q.dini_modulus_table(ell, np.linspace(0.05, math.pi, 20)), 0.1, 2.0),
    "kernel_bound_holder": lambda: q.kernel_bound_holder(ell, 0.5, 0.1, 2.0),
    "kernel_composition_residual": lambda: q.kernel_composition_residual(ell, q.AngleMap.identity(), 0.1, 2.0),
    "lipschitz_bound": lambda: q.lipschitz_bound(inputs),
    "make_scenario": lambda: q.make_scenario("harmonic_graph", eps=0.1, m=2),
    "max_curvature": lambda: q.max_curvature(q.arc_length_reparametrize(ell)),
    "minimal_surface_bound": lambda: q.minimal_surface_bound(1.5, 0.5, 1.0, 6.3),
    "mori_constant": lambda: q.mori_constant(1.5, 1.5, 1.0, 3.0),
    "mori_exponent": lambda: q.mori_exponent(1.5, 1.5, 1.0),
    "normalization_witness": lambda: q.normalization_witness(bm),
    "poisson_extend": lambda: q.poisson_extend(bm, [0.3j, 0.5]),
    "scenario_catalog": q.scenario_catalog,
    "surface_area": lambda: q.surface_area(bm),
    "verify": lambda: q.verify(affine, mu=0.5),
}
public = {name for name in q.__all__ if inspect.isfunction(getattr(q, name))}
assert set(calls) == public, sorted(public ^ set(calls))
for call in calls.values():
    call()
assert main(["constants", "--curve", "ellipse", "--out", sys.argv[1]]) == 0
print(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
"""


def test_runtime_needs_only_numpy(tmp_path):
    """Every public function, and the CLI, runs with scipy unimportable and loads no scipy module."""
    env = dict(os.environ, PYTHONPATH=str(Path(qcharm.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_ONLY_SCRIPT, str(tmp_path / "constants.json")],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"


def test_scenarios_listing(capsys):
    code, out, _ = run_cli(["scenarios"], capsys)
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["schema_version"] == "1"
    assert [c["name"] for c in payload["catalog"]][:2] == ["identity", "affine"]


def test_verify_choices_are_the_catalog():
    commands = next(a for a in build_parser()._actions if a.dest == "command")
    scenario = next(a for a in commands.choices["verify"]._actions if a.dest == "scenario")
    assert scenario.choices == [entry["name"] for entry in qcharm.scenario_catalog()]


def test_bound_command_matches_oracle(capsys):
    args = ["bound", "--K", "1", "--mu", "1", "--upsilon", "1", "--lambda", "1.5708", "--c-gamma", "1", "--length", "6.2832"]
    code, out, _ = run_cli(args, capsys)
    assert code == EXIT_OK
    payload = json.loads(out)
    assert abs(payload["alpha"] - 0.148454) < 1e-4
    assert payload["alpha"] == oracles.holder_exponent(1.0, 1.5708, 1.0)
    assert payload["log_L"] == oracles.lipschitz_log(1.0, 1.0, 1.0, 1.5708, 1.0, 6.2832)
    assert payload["checks"][0]["passed"]


def test_bound_zero_holder_constant(capsys):
    args = ["bound", "--K", "1", "--mu", "1", "--upsilon", "1", "--lambda", "1.5", "--c-gamma", "0", "--length", "6.2832"]
    code, out, _ = run_cli(args, capsys)
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["L"] == 0.0
    assert payload["log_L"] is None


def test_constants_ellipse(capsys, tmp_path):
    out_path = tmp_path / "c.json"
    args = ["constants", "--curve", "ellipse", "--a", "1.2", "--b", "0.8", "--out", str(out_path)]
    code, _, _ = run_cli(args, capsys)
    assert code == EXIT_OK
    payload = json.loads(out_path.read_text())
    consts = payload["constants"]
    assert abs(consts["max_curvature"] - 1.875) < 1e-4
    assert abs(consts["length"] - oracles.ellipse_perimeter(1.2, 0.8)) < 1e-8
    assert abs(consts["chord_arc"] - 1.9831799486613273) < 1e-4
    assert all(consts["converged"].values())
    # a descriptor is exact data: every harmonic kept, nothing dropped
    assert payload["curve"]["degree"] == 1 and payload["curve"]["tail"] == 0.0


def test_constants_from_csv(capsys, tmp_path):
    t = 2 * math.pi * np.arange(128) / 128
    rows = np.column_stack([t, 1.2 * np.cos(t), 0.8 * np.sin(t)])
    csv_path = tmp_path / "samples.csv"
    np.savetxt(csv_path, rows, delimiter=",")
    args = ["constants", "--curve", "csv", "--samples", str(csv_path)]
    code, out, _ = run_cli(args, capsys)
    assert code == EXIT_OK
    payload = json.loads(out)
    assert abs(payload["constants"]["length"] - oracles.ellipse_perimeter(1.2, 0.8)) < 1e-6
    # harmonics 2..64 of the fit are roundoff: the curve is fitted at degree 1
    report.validate_report(payload, "constants")
    assert payload["curve"]["degree"] == 1
    assert 0.0 < payload["curve"]["tail"] <= 1e-12
    code, out, _ = run_cli(args + ["--format", "csv"], capsys)
    row = dict(zip(*(line.split(",") for line in out.strip().split("\n"))))
    assert int(row["degree"]) == 1 and float(row["tail"]) == payload["curve"]["tail"]
    del payload["curve"]["degree"]
    with pytest.raises(DomainError, match="degree"):
        report.validate_report(payload, "constants")


def test_csv_report_is_validated(capsys, monkeypatch):
    monkeypatch.setitem(report.SCHEMAS, "constants", {"type": "object", "required": ["no_such_key"]})
    code, out, err = run_cli(["constants", "--format", "csv"], capsys)
    assert code == EXIT_CONFIG
    assert out == ""
    assert "no_such_key" in err


def test_constants_csv_format(capsys):
    args = ["constants", "--curve", "circle", "--format", "csv"]
    code, out, _ = run_cli(args, capsys)
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert len(lines) == 2
    header = lines[0].split(",")
    assert "chord_arc" in header and "converged_length" in header


def test_verify_identity_exit_zero(capsys, tmp_path):
    out_path = tmp_path / "v.json"
    args = ["verify", "--scenario", "identity", "--out", str(out_path)]
    code, _, _ = run_cli(args, capsys)
    assert code == EXIT_OK
    payload = json.loads(out_path.read_text())
    assert payload["all_passed"] is True
    assert all(rec["margin"] >= -1e-9 for rec in payload["checks"])
    report.validate_report(payload, "verify")
    # the identity's curve is the unit circle: its constants are the constants command's
    _, out, _ = run_cli(["constants", "--curve", "circle"], capsys)
    assert payload["constants"] == json.loads(out)["constants"]


@pytest.mark.parametrize(
    "scenario",
    ["identity", "affine", "conformal_poly --order 2", "conformal_poly --order 3", "harmonic_graph --order 2", "harmonic_graph --order 3"],
)
def test_verify_below_lipschitz_exponent_reports(scenario, capsys, tmp_path):
    out_path = tmp_path / "v.json"
    code, _, _ = run_cli(["verify", "--scenario", *scenario.split(), "--mu", "0.5", "--out", str(out_path)], capsys)
    assert code == EXIT_OK
    payload = json.loads(out_path.read_text())
    assert payload["all_passed"] is True


@pytest.mark.parametrize("scenario", ["identity", "affine", "conformal_poly --order 3", "harmonic_graph --order 2"])
def test_verify_near_zero_exponent_reports(scenario, capsys, tmp_path):
    # the boundary-Jacobian rule graded its kernel integrand by mu and underflowed at mu <= 0.02
    out_path = tmp_path / "v.json"
    code, _, _ = run_cli(["verify", "--scenario", *scenario.split(), "--mu", "0.02", "--out", str(out_path)], capsys)
    assert code == EXIT_OK
    assert json.loads(out_path.read_text())["all_passed"] is True


def test_verify_high_degree_conformal_reports(capsys, tmp_path):
    # degree 200: Gauss panels of order 128 did not settle the boundary-Jacobian integral
    out_path = tmp_path / "v.json"
    args = ["verify", "--scenario", "conformal_poly", "--order", "200", "--epsilon", "0.001", "--out", str(out_path)]
    code, _, _ = run_cli(args, capsys)
    assert code == EXIT_OK
    assert json.loads(out_path.read_text())["all_passed"] is True


def test_determinism_byte_identical(capsys):
    args = ["bound", "--K", "1.3", "--mu", "0.5", "--upsilon", "1", "--lambda", "2.0", "--c-gamma", "0.7", "--length", "5.5"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2

    args = ["constants", "--curve", "ellipse", "--a", "1.1", "--b", "0.9"]
    _, out3, _ = run_cli(args, capsys)
    _, out4, _ = run_cli(args, capsys)
    assert out3 == out4

    args = ["verify", "--scenario", "conformal_poly", "--epsilon", "0.2", "--order", "3"]
    _, out5, _ = run_cli(args, capsys)
    _, out6, _ = run_cli(args, capsys)
    assert out5 == out6


def test_config_file_supplies_defaults(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"K": 1.0, "mu": 1.0, "upsilon": 1.0, "lambda": 1.5708, "c_gamma": 1.0, "length": 6.2832}))
    code, out, _ = run_cli(["bound", "--config", str(cfg)], capsys)
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["inputs"]["K"] == 1.0

    # explicit flags win over the file
    code, out, _ = run_cli(["bound", "--config", str(cfg), "--K", "2.0"], capsys)
    assert code == EXIT_OK
    assert json.loads(out)["inputs"]["K"] == 2.0


def test_unreadable_config_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(["bound", "--config", str(bad)], capsys)
    assert code == EXIT_CONFIG
    assert "unreadable config" in err


def test_config_equals_form_is_read(capsys, tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"mu": 0.5}))
    _, out, _ = run_cli(["constants", "--curve", "ellipse", f"--config={cfg}"], capsys)
    assert json.loads(out)["constants"]["holder_exponent"] == 0.5


def test_explicit_equals_flag_wins_over_config(capsys, tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"mu": 1.0}))
    for config in (["--config", str(cfg)], [f"--config={cfg}"]):
        _, out, _ = run_cli(["constants", "--curve", "ellipse", "--mu=0.5", *config], capsys)
        assert json.loads(out)["constants"]["holder_exponent"] == 0.5


@pytest.mark.parametrize("flag", [["--m", "0.5"], ["--m=0.5"]], ids=["space", "equals"])
@pytest.mark.parametrize("with_config", [False, True], ids=["alone", "config"])
def test_abbreviated_flag_exits_two(flag, with_config, capsys, tmp_path):
    # a prefix of --mu is not --mu, so the config file cannot override it unseen
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"mu": 1.0}))
    config = ["--config", str(cfg)] if with_config else []
    with pytest.raises(SystemExit) as exc:
        main(["constants", "--curve", "ellipse", *flag, *config])
    assert exc.value.code == EXIT_CONFIG
    assert "unrecognized arguments: " + flag[0] in capsys.readouterr().err


def _assert_one_line_error(code, out, err):
    assert code == EXIT_CONFIG
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("content", [None, "not,a,number\n"], ids=["missing", "not-numeric"])
def test_unreadable_samples_exit_two(content, capsys, tmp_path):
    path = tmp_path / "samples.csv"
    if content is not None:
        path.write_text(content)
    code, out, err = run_cli(["constants", "--curve", "csv", "--samples", str(path)], capsys)
    _assert_one_line_error(code, out, err)
    assert "unreadable samples" in err


@pytest.mark.parametrize(
    "content",
    [None, "{not json", json.dumps({"sin_coeffs": [[0.0, 0.0], [0.0, 1.0]]})],
    ids=["missing", "malformed", "no-cos-coeffs"],
)
def test_unreadable_coeffs_exit_two(content, capsys, tmp_path):
    path = tmp_path / "coeffs.json"
    if content is not None:
        path.write_text(content)
    code, out, err = run_cli(["verify", "--scenario", "fourier", "--coeffs", str(path)], capsys)
    _assert_one_line_error(code, out, err)
    assert "unreadable coefficients" in err


def test_bad_bound_inputs_exit_two(capsys):
    args = ["bound", "--K", "0.5", "--mu", "1", "--upsilon", "1", "--lambda", "1.5", "--c-gamma", "1", "--length", "6.28"]
    code, _, err = run_cli(args, capsys)
    assert code == EXIT_CONFIG
    assert "error" in err


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--K", "inf"),
        ("--K", "1e308"),
        ("--K", "nan"),
        ("--lambda", "inf"),
        ("--lambda", "1e200"),
        ("--c-gamma", "inf"),
        ("--length", "inf"),
        ("--area", "nan"),
    ],
)
def test_bound_inputs_it_cannot_evaluate_exit_two(flag, value, capsys):
    # non-finite inputs, and a Hölder exponent that underflows to 0 or whose (1 + 2 lambda)^2 overflows
    args = {"--K": "1.5", "--mu": "1", "--upsilon": "1", "--lambda": "1.5", "--c-gamma": "1", "--length": "6.3"} | {flag: value}
    code, out, err = run_cli(["bound", *(item for pair in args.items() for item in pair)], capsys)
    _assert_one_line_error(code, out, err)


@pytest.mark.parametrize(
    "args",
    [
        ["constants", "--curve", "circle", "--radius", "nan"],
        ["constants", "--curve", "circle", "--radius", "inf"],
        ["constants", "--curve", "ellipse", "--a", "inf"],
        ["verify", "--scenario", "affine", "--c", "nan"],
        ["verify", "--scenario", "conformal_poly", "--epsilon", "nan"],
        ["verify", "--scenario", "fourier", "--coeffs", "COEFFS"],
        ["constants", "--curve", "csv", "--samples", "SAMPLES"],
    ],
    ids=["radius-nan", "radius-inf", "a-inf", "c-nan", "epsilon-nan", "coeffs-nan", "csv-nan"],
)
def test_non_finite_curve_input_exits_two(args, capsys, tmp_path):
    # these used to fit NaN down to a "degenerate parametrization", or overflow in the evaluator
    coeffs, samples = tmp_path / "coeffs.json", tmp_path / "samples.csv"
    coeffs.write_text(json.dumps({"cos_coeffs": [[0.0, 0.0], [1.0, math.nan]], "sin_coeffs": [[0.0, 0.0], [0.0, 1.0]]}))
    t = 2.0 * math.pi * np.arange(64) / 64
    rows = np.column_stack([t, np.cos(t), np.sin(t)])
    rows[5, 1] = math.nan
    np.savetxt(samples, rows, delimiter=",")
    code, out, err = run_cli([{"COEFFS": str(coeffs), "SAMPLES": str(samples)}.get(a, a) for a in args], capsys)
    _assert_one_line_error(code, out, err)
    assert "finite" in err


def test_verify_report_is_sanitized_once(capsys, monkeypatch):
    real = report.sanitize
    whole = []

    def counted(value):
        if isinstance(value, dict) and "schema_version" in value:
            whole.append(value)
        return real(value)

    monkeypatch.setattr(report, "sanitize", counted)
    code, out, _ = run_cli(["verify", "--scenario", "identity"], capsys)
    assert code == EXIT_OK and json.loads(out)["command"] == "verify"
    assert len(whole) == 1


def test_fourier_without_coeffs_exits_two(capsys):
    code, _, err = run_cli(["verify", "--scenario", "fourier"], capsys)
    assert code == EXIT_CONFIG


def test_order_above_the_largest_fit_exits_two(capsys):
    code, out, err = run_cli(["verify", "--scenario", "conformal_poly", "--order", "100000000", "--epsilon", "1e-9"], capsys)
    _assert_one_line_error(code, out, err)
    assert "16384" in err


def test_verify_fourier_from_coeff_file(capsys, tmp_path):
    coeffs = {
        "cos_coeffs": [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.05, 0.0]],
        "sin_coeffs": [[0.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, -0.05]],
    }
    path = tmp_path / "coeffs.json"
    path.write_text(json.dumps(coeffs))
    out_path = tmp_path / "four.csv"
    args = ["verify", "--scenario", "fourier", "--coeffs", str(path), "--out", str(out_path), "--format", "csv"]
    code, _, _ = run_cli(args, capsys)
    assert code == EXIT_OK
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "name,lhs,rhs,margin,passed"
    assert len(lines) >= 7  # one row per check


def test_unconverged_constants_exit_three(capsys, tmp_path):
    t = 2 * math.pi * np.arange(256) / 256
    noisy = np.column_stack([t, np.cos(t) + 1e-3 * np.cos(127 * t), np.sin(t)])
    csv_path = tmp_path / "noisy.csv"
    np.savetxt(csv_path, noisy, delimiter=",")
    args = ["constants", "--curve", "csv", "--samples", str(csv_path)]
    code, _, _ = run_cli(args, capsys)
    assert code == EXIT_NUMERIC


def _degree_1000_draws(count: int):
    """Seeded high-degree planar curves: the unit circle plus, at four degrees j in
    [600, 1000), cosine and sine harmonics of size about 1e-4 (600 / j)^2."""
    rng = np.random.default_rng(5)
    draws = []
    for _ in range(count):
        a, b = np.zeros((1001, 2)), np.zeros((1001, 2))
        a[1, 0] = b[1, 1] = 1.0
        for j in rng.integers(600, 1000, 4):
            a[j] += rng.normal(size=2) * 1e-4 * (600 / j) ** 2
            b[j] += rng.normal(size=2) * 1e-4 * (600 / j) ** 2
        draws.append((a, b))
    return draws


def test_high_degree_csv_constants_at_mu_one(capsys, tmp_path):
    # a degree-922 fit: a Hölder pair scan polishes into coincident pair ends here and
    # reads 0/0; at mu = 1 the constant is kappa_max (L / 2 pi)^2 and no pair is scored
    a, b = _degree_1000_draws(4)[3]
    t = 2 * math.pi * np.arange(4096) / 4096
    j = np.arange(a.shape[0])
    pts = np.cos(np.outer(t, j)) @ a + np.sin(np.outer(t, j)) @ b
    csv_path = tmp_path / "degree-1000.csv"
    np.savetxt(csv_path, np.column_stack([t, pts]), delimiter=",", fmt="%.17g")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = run_cli(["constants", "--curve", "csv", "--samples", str(csv_path)], capsys)
    assert code == EXIT_OK
    consts = json.loads(out)["constants"]
    assert consts["holder_constant"] == (consts["length"] / (2 * math.pi)) ** 2 * consts["max_curvature"]
    assert all(consts["converged"].values())


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--scenario", "identity", "--refine", "10"],
        ["verify", "--scenario", "identity", "--tol", "1e-3"],
        ["verify", "--scenario", "identity", "--upsilon", "1"],
        ["verify", "--scenario", "identity", "--workers", "1"],
        ["constants", "--curve", "circle", "--refine", "10"],
        ["verify", "--scenario", "identity", "--nodes", "512"],
        ["constants", "--curve", "circle", "--nodes", "128"],
    ],
)
def test_removed_flags_exit_two(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_CONFIG


def test_config_naming_removed_flag_exits_two(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    for removed in ({"tol": 1e-3}, {"nodes": 512}):
        cfg.write_text(json.dumps({"scenario": "identity"} | removed))
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--config", str(cfg)])
        assert exc.value.code == EXIT_CONFIG


def test_parser_is_built_once_and_parses_alike(capsys):
    # the parser is shared by every main() of a process; parsing leaves it as it was
    assert build_parser() is build_parser()
    argv = ["verify", "--scenario", "conformal_poly", "--order", "3", "--mu", "0.5"]
    first, second = run_cli(argv, capsys), run_cli(argv, capsys)
    assert first[0] == EXIT_OK and first == second

    def verify_help(parse):
        with pytest.raises(SystemExit) as exc:
            parse(["verify", "--help"])
        assert exc.value.code == 0
        return capsys.readouterr().out

    helps = [verify_help(main) for _ in range(2)]
    fresh = verify_help(build_parser.__wrapped__().parse_args)  # a parser built anew
    assert helps[0] and helps[0] == helps[1] == fresh
