"""The package keeps to the oldest Python that pyproject.toml accepts, 3.10."""

import ast
import re
from pathlib import Path

from polydecomp import cli

PACKAGE = Path(cli.__file__).parent


def test_modules_parse_as_python_3_10():
    modules = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "cli.py" in modules
    for path in modules:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def _python_3_11_forms(pattern: str) -> list[str]:
    """The atomic groups and possessive quantifiers in a regex, which the
    re module reads only from Python 3.11 on.  Escapes and character
    classes are dropped first, where '+' after a quantifier is literal."""
    bare = re.sub(r"\[\^?\]?(?:\\.|[^\]\\])*\]", "", re.sub(r"\\\\|\\[^\\]", "", pattern))
    return re.findall(r"\(\?>|[+*?}]\+", bare)


def test_cli_patterns_use_no_python_3_11_regex_forms():
    assert _python_3_11_forms("[0-9]++(?>a|b)x*+y?+z{2}+") == ["++", "(?>", "*+", "?+", "}+"]
    assert _python_3_11_forms(r"[-+*^/]\++[*+]|\\+") == []
    patterns = [value for value in vars(cli).values() if isinstance(value, re.Pattern)]
    assert cli._TERM in patterns and cli._TOKEN in patterns
    for pattern in patterns:
        assert _python_3_11_forms(pattern.pattern) == [], pattern.pattern
