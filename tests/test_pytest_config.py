"""The repository's pytest configuration: a failing hypothesis test fails
alone, and the session goes on to the tests after it.

``filterwarnings = ["error"]`` turns every warning into an error.  When a
``@given`` test fails, hypothesis's report hook imports libcst, whose import
warns; without the one ``ignore`` entry for that warning the session ended
in INTERNALERROR and no later test ran.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

PAIR = '''\
from hypothesis import given
from hypothesis import strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_given_test_does_not_end_the_session(tmp_path):
    path = tmp_path / "test_pair.py"
    path.write_text(PAIR)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         str(path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "1 failed, 1 passed" in out, out
    assert "INTERNALERROR" not in out, out
