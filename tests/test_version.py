"""The package version has one source: pyproject.toml.

``repro.__version__`` salts every engine cache key, so it must match
the packaged version exactly.
"""

import re
from pathlib import Path

import repro

REPO_ROOT = Path(__file__).resolve().parents[1]


def _pyproject_version() -> str:
    text = (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", text, re.M | re.S)
    assert project, "pyproject.toml has no [project] table"
    match = re.search(r'^version\s*=\s*"([^"]+)"', project.group(1), re.M)
    assert match, "[project] table has no version"
    return match.group(1)


def test_version_matches_pyproject():
    assert repro.__version__ == _pyproject_version()

