import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcharm import DomainError, report
from qcharm.report import NonFiniteError, dumps, dumps_csv, sanitize


def test_sanitize_maps_infinity_to_null():
    assert sanitize(float("inf")) is None
    assert sanitize({"a": float("-inf")}) == {"a": None}


def test_sanitize_rejects_nan():
    with pytest.raises(NonFiniteError):
        sanitize({"x": float("nan")})


def test_sanitize_numpy_types():
    out = sanitize({"a": np.float64(1.5), "b": np.int32(3), "c": np.bool_(True), "d": np.arange(3)})
    assert out == {"a": 1.5, "b": 3, "c": True, "d": [0, 1, 2]}


def test_dumps_round_trip():
    payload = {"schema_version": "1", "values": [1.0, 0.1, 12345.678], "flag": True, "none": None, "name": 'q"uote'}
    text = dumps(payload)
    back = json.loads(text)
    assert back == payload


@settings(max_examples=300, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False) | st.integers(-(2**53), 2**53).map(float))
@example(-0.0)
@example(0.0)
@example(1.0)
@example(5e-324)
@example(2.2250738585072014e-308 / 3)
@example(0.3)
def test_dumps_floats_round_trip_bit_identical(x):
    back = json.loads(dumps({"x": x}))["x"]
    assert type(back) is float
    assert back.hex() == x.hex()


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.text(), st.text()))
def test_dumps_strings_and_key_order_round_trip(payload):
    payload = {"z": 'q"uote', "a": "back\\slash", "m": "line\nbreak", "c": "ctrl\x01", "é": "μ ∞ 𝔻"} | payload
    back = json.loads(dumps(payload))
    assert back == payload
    assert list(back) == list(payload)


def test_dumps_deterministic():
    payload = {"x": math.pi, "y": [1e-300, 2.5]}
    assert dumps(payload) == dumps(payload)


@settings(max_examples=200, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_seventeen_digits_round_trip(x):
    assert float(format(x, ".17g")) == x


def test_csv_flat_rows():
    rows = [{"a": 1.5, "b": "x,y", "c": None}, {"a": 2.0, "b": "plain", "c": 7}]
    text = dumps_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "a,b,c"
    assert lines[1] == '1.5,"x,y",'
    assert lines[2] == "2,plain,7"


def test_validate_report_missing_key():
    with pytest.raises(Exception):
        report.validate_report({"command": "bound"}, "bound")


def _verify_report(check):
    return {"schema_version": "1", "command": "verify", "scenario": "identity", "checks": [check], "all_passed": True}


def test_validate_report_checks_record_types():
    good = {"name": "area_vs_exact", "lhs": 0.0, "rhs": 1e-8, "margin": 1e-8, "passed": True}
    report.validate_report(_verify_report(good), "verify")
    report.validate_report(_verify_report(good | {"rhs": None, "margin": 0}), "verify")
    with pytest.raises(DomainError):
        report.validate_report(_verify_report(good | {"passed": "yes"}), "verify")
    with pytest.raises(DomainError):
        report.validate_report(_verify_report({k: v for k, v in good.items() if k != "margin"}), "verify")
    with pytest.raises(DomainError):
        report.validate_report(_verify_report(good | {"lhs": True}), "verify")
