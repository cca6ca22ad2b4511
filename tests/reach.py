"""Reach report: the functions of ``src/qcharm`` that no CLI command enters.

Runs a fixed set of 14 commands in-process through ``qcharm.cli.main`` under a
profile hook (``sys.setprofile``), then prints ``file:line name`` for each
function, method or nested function of the package whose body was never entered,
and one summary line.  Comprehensions
and lambdas are not listed.  It reports only, and always exits 0.

    PYTHONPATH=src python tests/reach.py
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np


def _write_inputs(folder: Path):
    """coeffs-8.json, the FFT fit of 64 samples of a degree-8 planar map, and
    samples-r3.csv, 256 rows of a degree-5 curve in R^3."""
    m = 64
    z = np.exp(2j * np.pi * np.arange(m) / m)
    j = np.arange(2, 9)[:, None]
    w = z + np.sum(0.2 / j**3 * np.exp(1j * j) * z**j + 0.1 / j**3 * np.conj(z) ** j, axis=0)
    c = np.fft.rfft(np.stack([w.real, w.imag], axis=1), axis=0) / m
    a, b = 2 * c.real, -2 * c.imag
    a[0] /= 2
    a[-1] /= 2
    b[0] = b[-1] = 0
    (folder / "coeffs-8.json").write_text(json.dumps({"cos_coeffs": a.tolist(), "sin_coeffs": b.tolist()}))
    rows = []
    for t in (2 * math.pi * k / 256 for k in range(256)):
        point = (math.cos(t) + 0.05 * math.cos(3 * t), math.sin(t) - 0.03 * math.sin(2 * t), 0.1 * math.sin(2 * t) + 0.02 * math.cos(5 * t))
        rows.append(",".join(repr(v) for v in (t, *point)))
    (folder / "samples-r3.csv").write_text("\n".join(rows) + "\n")


def _commands(folder: Path) -> list[list[str]]:
    coeffs, samples = str(folder / "coeffs-8.json"), str(folder / "samples-r3.csv")
    commands = [["verify", "--scenario", name] for name in ("identity", "affine", "conformal_poly", "harmonic_graph")]
    commands += [["verify", "--scenario", "fourier", "--coeffs", coeffs, "--mu", mu] for mu in ("1", "0.5")]
    commands += [
        ["verify", "--scenario", "conformal_poly", "--order", "3", "--mu", "0.5"],
        ["verify", "--scenario", "identity", "--format", "csv"],
        ["constants", "--curve", "ellipse", "--a", "4", "--b", "1"],
        ["constants", "--curve", "ellipse", "--a", "4", "--b", "1", "--mu", "0.5"],
        ["constants", "--curve", "circle", "--format", "csv"],
        ["constants", "--curve", "csv", "--samples", samples, "--mu", "0.5"],
        ["scenarios"],
        ["bound", "--K", "1.5", "--mu", "0.5", "--upsilon", "1", "--lambda", "1.5", "--c-gamma", "1", "--length", "6.3"],
    ]
    return [c + ["--out", str(folder / f"report-{k}")] for k, c in enumerate(commands)]


def _functions(code):
    """Every named function code object nested in ``code``, depth first."""
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            if not const.co_name.startswith("<"):
                yield const
            yield from _functions(const)


def main() -> int:
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(hook)
    try:
        from qcharm.cli import main as cli_main

        with tempfile.TemporaryDirectory() as tmp:
            folder = Path(tmp)
            _write_inputs(folder)
            codes = []
            for argv in _commands(folder):
                try:
                    codes.append(cli_main(argv))
                except Exception as exc:  # a crash is reported, not raised
                    codes.append(f"{type(exc).__name__}: {exc}")
    finally:
        sys.setprofile(None)

    import qcharm

    package = Path(qcharm.__file__).resolve().parent
    reached = {(os.path.realpath(c.co_filename), c.co_firstlineno, c.co_name) for c in entered}
    total, missed = 0, []
    for path in sorted(package.glob("*.py")):
        for code in _functions(compile(path.read_text(), str(path), "exec")):
            total += 1
            if (str(path), code.co_firstlineno, code.co_name) not in reached:
                missed.append(f"{os.path.relpath(path)}:{code.co_firstlineno} {getattr(code, 'co_qualname', code.co_name)}")
    print("\n".join(missed))
    print(f"{len(missed)} of {total} functions in {os.path.relpath(package)} never entered by {len(codes)} CLI commands (exit codes {codes})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
