"""The suite's own pytest and Hypothesis settings let a failing property
report its falsifying example."""

from pathlib import Path

pytest_plugins = ["pytester"]

ROOT = Path(__file__).resolve().parents[1]


def test_failing_property_shows_its_example(pytester):
    # The repository's pyproject.toml (warning filters included) and the
    # suite's Hypothesis profile, in a fresh process: Hypothesis then imports
    # its patch writer, whose dependencies raise a DeprecationWarning.
    pytester.makepyprojecttoml((ROOT / "pyproject.toml").read_text())
    pytester.makeconftest((ROOT / "tests" / "conftest.py").read_text())
    pytester.makepyfile(
        """
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_below_ten(x):
            assert x < 10
        """
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    assert result.ret == 1
    result.stdout.fnmatch_lines(["*Falsifying example*"])
    result.stdout.no_fnmatch_line("*INTERNALERROR*")
