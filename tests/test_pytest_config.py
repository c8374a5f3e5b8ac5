"""The suite's warning filters under a failing Hypothesis test.

On a failing ``@given`` test, Hypothesis's pytest plugin imports libcst to
write a patch of the failing example, and that import issues a third-party
``DeprecationWarning``.  Raised as an error inside the report hook, it ended
the whole run with ``INTERNALERROR`` and exit 3, so no later test ran.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

SUITE = """
    import warnings

    from hypothesis import given, strategies as st


    @given(st.integers())
    def test_a_failing_given(x):
        assert x < 0


    def test_a_deprecated_call_still_fails():
        warnings.warn("old", DeprecationWarning)


    def test_a_later_test_runs():
        pass
"""


def test_failing_given_test_ends_the_run_with_exit_1(tmp_path):
    (tmp_path / "test_suite.py").write_text(textwrap.dedent(SUITE))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_suite.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert run.returncode == 1, run.stdout + run.stderr
    assert "2 failed, 1 passed" in run.stdout
    assert "FAILED test_suite.py::test_a_deprecated_call_still_fails" in run.stdout
