"""Every script in demos/ runs to completion against the source tree."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_0(demo, tmp_path, src_env):
    # demos write their artefacts under tempfile.mkdtemp(); keep them in tmp_path
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path,
                          env=dict(src_env, TMPDIR=str(tmp_path)),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
