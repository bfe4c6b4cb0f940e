"""Fixtures shared by the test modules."""

import os
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture
def src_env() -> dict:
    """This process's environment with the repository's src/ first on
    PYTHONPATH, for a child interpreter that imports acdkit from the tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env
