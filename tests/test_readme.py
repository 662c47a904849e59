"""README's `>>>` examples run as doctests against the package."""

import doctest
import os

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                      "README.md")


def test_readme_examples():
    result = doctest.testfile(README, module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0
