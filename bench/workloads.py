"""The two benchmark workloads: what one operation runs, and its output checks.

An operation goes through ``qcharm.cli.main`` in-process where a CLI
command exists (``verify``, ``constants``) and through the public library
functions otherwise, with the program's default configuration.

Failures are counted per check, not per operation, so that one failure in
an operation does not hide another beside it.  The checks of one operation
are: each CLI call (it returned a report), each check in a ``verify``
report, each ``converged`` flag of a ``constants`` report, each comparison
with an exact reference, the curve set-up of a geometry curve, and each
library call it makes (it returned a finite value without raising).  A
library call that could not run because the set-up failed counts as a
failed check.

Each problem found lands in one or more of three lists:

* ``known``: a failed check that matches one of the program's known
  defects exactly, as listed below.  These are counted and reported, but
  not in ``failed``.
* ``failures``: every other failed check -- a CLI call without a report, a
  raised ``QcharmError``, a failed report check, a constant that is not
  ``converged``, a ``ConsistencyError`` from a majorant, a non-finite
  value, or a reference mismatch.  These count in ``failed``.
* ``wrong``: an output the program presented as good is wrong -- a
  reference mismatch or a non-finite value in a report that passed, an
  exit code that disagrees with the report, or a crash that is not a
  ``QcharmError``, from ``cli.main`` or from a library call.  Any of these
  makes the run's ``correct`` false.

The known defects, each matched on the input, the call and the error:

* verify on ``conformal_poly`` with m >= 3 and on ``harmonic_graph``: the
  linear radial extrapolation misses sup|grad u| and K by more than the
  1e-6 gate (``sup_grad_vs_exact``, ``dilatation_vs_exact`` and the
  ``sup_grad`` and ``K`` references), but by less than ``KNOWN_BIAS``.
* ``boundary_jacobian_bound`` with the graded method raises
  ``RefinementError`` for mu < 1.
* ``constants`` at mu < 1 leaves the Hölder constant of a high-aspect
  ellipse not converged.
* ``kernel_bound_holder`` raises ``ConsistencyError`` at mu = 1 on some
  sampled curves: a kernel value exceeds the Hölder bound whose constant
  an earlier pair of the same curve estimated, by about 1e-4 relative.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

import inputs

# Loosest tolerance the program itself applies to an exact comparison
# (sup_grad_vs_exact, dilatation_vs_exact, curve-constant convergence).
REFERENCE_GATE = 1e-6
# Largest relative error still taken for the known extrapolation bias; it
# is at most 1e-5 on the closed-form inputs.
KNOWN_BIAS = 1e-4
BIAS_CHECKS = ("sup_grad_vs_exact", "dilatation_vs_exact")
BIAS_FIELDS = ("sup_grad", "K")
DIGITS_CAP = -math.log10(np.finfo(float).eps)


@dataclass
class Outcome:
    checks: int = 0
    failures: list = field(default_factory=list)  # class label of each failed check
    known: list = field(default_factory=list)  # class label of each known-defect check
    wrong: list = field(default_factory=list)
    digits: list = field(default_factory=list)  # (digits, what)

    def check(self, ok: bool, label: str, known: bool = False) -> bool:
        self.checks += 1
        if not ok:
            (self.known if known else self.failures).append(label)
        return ok


def digits_of(value: float, exact: float) -> float:
    rel = abs(value - exact) / abs(exact)
    return DIGITS_CAP if rel <= np.finfo(float).eps else -math.log10(rel)


class Program:
    """Handle on the qcharm modules the workloads call, imported once."""

    def __init__(self):
        import qcharm
        import qcharm.cli

        self.q = qcharm
        self.cli = qcharm.cli

    def run_cli(self, argv):
        """(exit code, parsed JSON report or None, exception raised out of
        ``main`` or None)."""
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = self.cli.main(list(argv))
        except Exception as exc:  # noqa: BLE001 - recorded as this call's outcome
            return None, None, exc
        text = out.getvalue()
        try:
            payload = json.loads(text) if text else None
        except json.JSONDecodeError:
            payload = None
        return code, payload, None


def _check_cli(program: Program, outcome: Outcome, tag: str, raw):
    """Check that a CLI call returned a report; the report, or None."""
    code, payload, crash = raw
    if crash is not None:
        outcome.check(False, f"{tag}:{type(crash).__name__}")
        if not isinstance(crash, program.q.QcharmError):
            outcome.wrong.append(f"{tag} crashed: {type(crash).__name__}: {crash}")
        return None
    outcome.check(payload is not None, f"{tag}:exit={code}")
    if payload is None and code == 0:
        outcome.wrong.append(f"{tag} exit 0 without a parsable report")
    return payload


def _compare(outcome: Outcome, key: str, label: str, value, exact: float, report_ok: bool, biased: bool = False):
    what = f"{key}[{label}]"
    if not outcome.check(value is not None and math.isfinite(value), f"{key}:non-finite"):
        if report_ok:
            outcome.wrong.append(f"{what}: non-finite value in a passing report")
        return
    outcome.digits.append((digits_of(value, exact), what))
    rel = abs(value - exact) / abs(exact)
    if not outcome.check(rel <= REFERENCE_GATE, f"{key}:reference", known=biased and rel <= KNOWN_BIAS):
        if report_ok:
            outcome.wrong.append(f"{what}: {value!r} against exact {exact!r} in a passing report")


# ---------------------------------------------------------------------------
# verify


def run_verify(program: Program, inp: inputs.VerifyOp):
    return [program.run_cli(one.argv) for one in inp.reports]


def check_verify(program: Program, inp: inputs.VerifyOp, raw) -> Outcome:
    outcome = Outcome()
    for one, one_raw in zip(inp.reports, raw):
        _check_report(program, outcome, one, one_raw)
    return outcome


def _check_report(program: Program, outcome: Outcome, inp: inputs.VerifyInput, raw):
    payload = _check_cli(program, outcome, "verify", raw)
    refs = inp.references
    if payload is None:
        for key in refs:
            outcome.check(False, f"{key}:no-report")
        return
    for check in payload["checks"]:
        known = inp.extrapolation_bias and check["name"] in BIAS_CHECKS and check["lhs"] <= KNOWN_BIAS
        outcome.check(check["passed"], f"check:{check['name']}", known)
    code = raw[0]
    if (code == 0) != (payload.get("all_passed") is True):
        outcome.wrong.append(f"exit {code} disagrees with all_passed={payload.get('all_passed')}")
    ok = code == 0
    fields = {
        "area": payload.get("area"),
        "sup_grad": payload["sup_gradient"]["extrapolated"],
        "K": payload["dilatation"]["estimate"],
    }
    for key, exact in refs.items():
        _compare(outcome, key, inp.label, fields[key], exact, ok, inp.extrapolation_bias and key in BIAS_FIELDS)
    # the report's own exact fields must agree with the closed forms
    for key, reported in (("sup_grad", payload["sup_gradient"]["exact"]), ("K", payload["dilatation"]["exact"])):
        if key in refs and (reported is None or abs(reported - refs[key]) > 1e-12 * refs[key]):
            outcome.wrong.append(f"report's exact {key} {reported!r} differs from closed form {refs[key]!r}")


# ---------------------------------------------------------------------------
# boundary-geometry


METHODS = ("graded", "majorant")
FORMS = ("kernel", "holder")
BOUNDARY_MAPS = 2  # plain, and with a non-identity angle map


def planned_calls(curve: inputs.CurveInput) -> int:
    """Library calls made for one curve when its set-up succeeds."""
    mus = len(curve.argvs)
    return len(curve.pairs) * (1 + mus) + mus * BOUNDARY_MAPS * len(METHODS) * len(FORMS) * len(curve.taus)


def run_geometry(program: Program, inp: inputs.GeometryInput):
    return [_run_curve(program, curve) for curve in inp.curves]


def _run_curve(program: Program, inp: inputs.CurveInput):
    """For each Hölder exponent: CLI constants, the Hölder majorant at the
    angle pairs and the boundary-Jacobian bound over the tau grid (graded
    and majorant methods, kernel and holder forms) for the plain boundary
    map and one with a non-identity angle map.  The modulus table and the
    modulus majorant do not depend on the exponent and run once."""
    q = program.q
    raw = {"cli": {}, "setup": None, "calls": []}
    for mu, argv in inp.argvs.items():
        raw["cli"][mu] = program.run_cli(argv)
    try:
        if inp.ellipse is not None:
            curve = q.curves.build_curve(q.curves.ellipse(*inp.ellipse), 512)
        else:
            data = np.loadtxt(inp.csv_path, delimiter=",")
            curve = q.curves.build_curve((data[:, 0], data[:, 1:]), 512)
        omega = q.curves.dini_modulus_table(curve, inputs.MODULUS_STEPS)
        raw["omega"] = omega.values
        amap = q.poisson.AngleMap(q.curves.TrigPolynomial(*inp.angle_map_coeffs))
        bmaps = (q.poisson.BoundaryMap(curve), q.poisson.BoundaryMap(curve, amap))
    except Exception as exc:  # noqa: BLE001 - recorded as this curve's outcome
        raw["setup"] = exc
        return raw
    for s, t in inp.pairs:
        _attempt(raw, ("kernel_bound_dini", None, None, None), q.kernels.kernel_bound_dini, curve, omega, s, t)
    spec = q.poisson.QuadratureSpec()
    for mu in inp.argvs:
        c_h = None
        for s, t in inp.pairs:
            res = _attempt(raw, ("kernel_bound_holder", mu, None, None), q.kernels.kernel_bound_holder, curve, mu, s, t, c_h=c_h)
            if res is not None:
                c_h = res[1]
        for bmap in bmaps:
            for method in METHODS:
                for form in FORMS:
                    call = ("boundary_jacobian_bound", mu, method, form)
                    for tau in inp.taus:
                        _attempt(
                            raw, call, q.kernels.boundary_jacobian_bound, bmap, tau, spec, mu=mu, method=method, form=form, c_h=c_h
                        )
    return raw


def _attempt(raw, call, fn, *args, **kwargs):
    """fn(*args, **kwargs), recorded with the exception it raised, if any;
    ``call`` is (function name, mu, method, form)."""
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - counted by check_geometry
        raw["calls"].append((call, exc, None))
        return None
    raw["calls"].append((call, None, result))
    return result


def _where(call) -> str:
    name, mu, method, form = call
    return name + ("" if mu is None else f"[{method},{form},mu={mu}]" if method else f"[mu={mu}]")


def _known_call(program: Program, curve: inputs.CurveInput, call, exc) -> bool:
    name, mu, method, _ = call
    q = program.q
    if name == "boundary_jacobian_bound":
        return method == "graded" and mu < 1 and isinstance(exc, q.RefinementError)
    if name == "kernel_bound_holder":
        return mu == 1 and curve.kind == "csv" and isinstance(exc, q.ConsistencyError)
    return False


def check_geometry(program: Program, inp: inputs.GeometryInput, raw) -> Outcome:
    outcome = Outcome()
    for curve, curve_raw in zip(inp.curves, raw):
        _check_curve(program, outcome, curve, curve_raw)
    return outcome


def _check_curve(program: Program, outcome: Outcome, inp: inputs.CurveInput, raw):
    wrong = set()

    def crash(where, exc):
        if not isinstance(exc, program.q.QcharmError) and where not in wrong:
            wrong.add(where)
            outcome.wrong.append(f"{where} crashed on {inp.label}: {type(exc).__name__}: {exc}")

    for mu, cli_raw in raw["cli"].items():
        tag = f"constants[mu={mu}]"
        payload = _check_cli(program, outcome, tag, cli_raw)
        if payload is None:
            for key in inp.references:
                outcome.check(False, f"{key}:no-report")
            continue
        converged = payload["constants"]["converged"]
        for key, ok in sorted(converged.items()):
            known = mu < 1 and inp.kind == "ellipse" and key == "holder_constant"
            outcome.check(ok, f"{tag}:not-converged:{key}", known)
        if all(converged.values()) and cli_raw[0] != 0:
            outcome.wrong.append(f"{tag} exit {cli_raw[0]} with every constant converged")
        for key, exact in inp.references.items():
            ok = cli_raw[0] == 0 and converged.get(key, True)
            _compare(outcome, key, inp.label, payload["constants"][key], exact, ok)
    if not outcome.check(raw["setup"] is None, f"setup:{type(raw['setup']).__name__}"):
        crash("setup", raw["setup"])
    elif not outcome.check(bool(np.all(np.isfinite(raw["omega"]))), "dini_modulus_table:non-finite"):
        outcome.wrong.append(f"modulus table of {inp.label} holds non-finite values")
    for call, exc, result in raw["calls"]:
        where = _where(call)
        if exc is not None:
            outcome.check(False, f"{where}:{type(exc).__name__}", _known_call(program, inp, call, exc))
            crash(where, exc)
            continue
        value = result[0] if isinstance(result, tuple) else result
        if not outcome.check(math.isfinite(value), f"{where}:non-finite") and where + ":non-finite" not in wrong:
            wrong.add(where + ":non-finite")
            outcome.wrong.append(f"{where} returned a non-finite value without an error on {inp.label}")
    for _ in range(planned_calls(inp) - len(raw["calls"])):
        outcome.check(False, "not-run:setup-failed")


@dataclass(frozen=True)
class Workload:
    make_input: object  # (seed, index, workdir) -> input
    execute: object  # (program, input) -> raw
    check: object  # (program, input, raw) -> Outcome


WORKLOADS = {
    "verify": Workload(inputs.verify_input, run_verify, check_verify),
    "boundary-geometry": Workload(inputs.geometry_input, run_geometry, check_geometry),
}
