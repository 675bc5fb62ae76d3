"""The README's examples: every shell session and the Python API values."""

import ast
import io
import re
import shlex
import tokenize
from pathlib import Path

import pytest

from weightsys.cli import main

ROOT = Path(__file__).parent.parent
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$",
                    (ROOT / "README.md").read_text(), re.M | re.S)
SESSIONS = [tuple(body.split("\n", 1)) for _, body in BLOCKS
            if body.startswith("$ weightsys ")]
API = [body for lang, body in BLOCKS if lang == "python"]


def test_readme_shows_every_subcommand():
    shown = {shlex.split(command)[2] for command, _ in SESSIONS}
    assert shown == {"eval", "poly", "colorings", "map", "survey",
                     "validate"}


@pytest.mark.parametrize("command,expected", SESSIONS,
                         ids=[command for command, _ in SESSIONS])
def test_readme_session(command, expected, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert main(shlex.split(command)[2:]) == 0
    assert capsys.readouterr().out == expected


def test_readme_api_values(monkeypatch):
    # Each expression line's comment gives its value as printed, then
    # optionally "== <expression>" for an equal value.
    [block] = API
    comments = {tok.start[0]: tok.string.lstrip("# ")
                for tok in tokenize.generate_tokens(io.StringIO(block).readline)
                if tok.type == tokenize.COMMENT}
    monkeypatch.chdir(ROOT)
    scope: dict = {}
    checked = []
    for stmt in ast.parse(block).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), scope)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md",
                             "eval"), scope)
        printed, *equal = comments[stmt.lineno].split(" == ")
        assert str(value) == printed, ast.unparse(stmt)
        for other in equal:
            assert value == eval(other, scope), ast.unparse(stmt)
        checked.append(printed)
    assert checked == ["2*N^4 - 2*N^2", "144", "6", "(2, (1, 1, 1, 1))",
                       "(2, 6, 24)"]
