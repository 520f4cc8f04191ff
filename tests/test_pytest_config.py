"""The test-suite configuration lets a failing property test report its example."""

from pathlib import Path

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given
from hypothesis import strategies as st


@given(st.integers())
def test_below_ten(n):
    assert n < 10
"""


def test_failing_property_reports_a_failure_not_an_internal_error(pytester):
    # the suite's own pytest settings, run in a fresh process so that every
    # import hypothesis makes while reporting happens under them
    pytester.makefile(".toml", pyproject=PYPROJECT.read_text())
    pytester.makepyfile(test_property=FAILING_PROPERTY)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1)
    result.stdout.fnmatch_lines(["*Falsifying example*"])
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
