"""The README's examples run as written: every `latticecount` line of the
CLI block exits 0, and every Library line whose comment starts with a
Python literal evaluates to that literal."""

import ast
import io
import shlex
import tokenize
from pathlib import Path

from latticecount import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(heading, fence):
    """The lines of the first code block opened by fence after heading."""
    text = README.read_text()
    start = text.index(fence + "\n", text.index("\n" + heading + "\n")) + len(fence) + 1
    return text[start:text.index("\n```", start)].splitlines()


def _leading_literal(text):
    """(True, value) for the longest prefix of text that is a Python
    literal, (False, None) when no prefix is one."""
    for end in range(len(text), 0, -1):
        try:
            return True, ast.literal_eval(text[:end])
        except (SyntaxError, ValueError, TypeError):
            continue
    return False, None


def test_readme_cli_lines_exit_0(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    ran = 0
    for line in _block("## CLI", "```"):
        words = shlex.split(line, comments=True)
        if words[0] == "printf":
            fmt, redirect, path = words[1:]
            assert redirect == ">", line
            (tmp_path / path).write_text(fmt.replace("\\n", "\n"))
            continue
        assert words[0] == "latticecount", line
        out, err = io.StringIO(), io.StringIO()
        assert cli.run(words[1:], out=out, err=err) == 0, (line, err.getvalue())
        assert out.getvalue(), line
        ran += 1
    assert ran >= 11


def test_readme_library_lines_evaluate_to_their_comments():
    namespace = {}
    checked = 0
    for line in _block("## Library", "```python"):
        if not line.strip():
            continue
        comment = next((tok for tok in tokenize.generate_tokens(io.StringIO(line).readline)
                        if tok.type == tokenize.COMMENT), None)
        code = line[:comment.start[1]] if comment else line
        is_literal, expected = _leading_literal(comment.string[1:].strip()) if comment else (False, None)
        if is_literal:
            assert eval(code, namespace) == expected, line
            checked += 1
        else:
            exec(code, namespace)
    assert checked >= 11
