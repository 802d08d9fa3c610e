"""Canonical JSON: numpy values key like their plain-Python images.

``sanitize`` checks for numpy types only once numpy is loaded (no
value can be a numpy object before), so keying plain data never
imports it.  These tests pin both halves: numpy payloads serialise
exactly as their plain equivalents, and a plain payload leaves numpy
unloaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.serialization import canonical_json, content_key, sanitize

REPO_ROOT = Path(__file__).resolve().parents[1]


def _plain_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


CASES = [
    (np.bool_(True), True),
    (np.bool_(False), False),
    (np.int64(-7), -7),
    (np.float32(1.25), 1.25),
    (np.float32(0.1), 0.10000000149011612),
    (np.float64(0.1), 0.1),
    (np.array(3.5), 3.5),
    (np.array(4), 4),
    (np.arange(6).reshape(2, 3), [[0, 1, 2], [3, 4, 5]]),
    (np.array([[0.5, 1.0], [1.5, 2.0]]), [[0.5, 1.0], [1.5, 2.0]]),
]


@pytest.mark.parametrize(
    "value, plain",
    CASES,
    ids=[f"{type(v).__name__}-{i}" for i, (v, _) in enumerate(CASES)],
)
def test_numpy_value_nested_in_dicts_and_tuples(value, plain):
    payload = {"outer": ({"inner": value}, value), "k": (1, value)}
    expected = {"outer": [{"inner": plain}, plain], "k": [1, plain]}
    assert canonical_json(payload) == _plain_json(expected)
    assert content_key(payload) == content_key(expected)


def test_sanitized_scalars_are_builtin_types():
    out = sanitize(
        [np.bool_(True), np.int64(2), np.float32(1.5), np.float64(2.5), np.array(1)]
    )
    assert [type(v) for v in out] == [bool, int, float, float, int]


def test_unsupported_values_still_raise():
    with pytest.raises(TypeError):
        sanitize({"x": np.datetime64("2016-06-05")})
    with pytest.raises(TypeError):
        sanitize({1, 2})


_PLAIN_PROBE = """
import json, sys
from repro.serialization import canonical_json, content_key, sanitize
text = canonical_json({"a": (1, 2.5, True, None), "b": ["x", {"c": -3}]})
key = content_key("cell", {"a": 1})
try:
    sanitize(object())
    raised = False
except TypeError:
    raised = True
print(json.dumps({"text": text, "raised": raised, "numpy": "numpy" in sys.modules}))
"""


def test_plain_payload_does_not_import_numpy():
    proc = subprocess.run(
        [sys.executable, "-c", _PLAIN_PROBE],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report == {
        "text": '{"a":[1,2.5,true,null],"b":["x",{"c":-3}]}',
        "raised": True,
        "numpy": False,
    }
