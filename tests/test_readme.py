"""The README's Python examples run, in order and in one namespace, and give
the results their comments show."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _shown(comment):
    """The value a comment shows: the whole comment or its first word as a
    Python literal, or None when it shows none."""
    for text in (comment, comment.split(" ", 1)[0]):
        try:
            return (ast.literal_eval(text),)
        except (ValueError, SyntaxError):
            pass
    return None


def test_readme_python_blocks_show_their_results():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)
    assert len(blocks) == 2
    namespace, claims = {}, []
    for block in blocks:
        lines = block.splitlines()
        for stmt in ast.parse(block).body:
            if not isinstance(stmt, ast.Expr):
                exec(compile(ast.Module([stmt], []), str(README), "exec"), namespace)
                continue
            value = eval(compile(ast.Expression(stmt.value), str(README), "eval"), namespace)
            # the comment on the expression's last line, else the next line's
            after = lines[stmt.end_lineno - 1][stmt.end_col_offset :].strip()
            if not after and stmt.end_lineno < len(lines):
                after = lines[stmt.end_lineno].strip()
            shown = _shown(after[1:].strip()) if after.startswith("#") else None
            if shown is not None:
                assert value == shown[0], ast.unparse(stmt)
                claims.append(shown[0])
    assert claims == [["ab", "aabb", "aaabbb", "aaaabbbb"], 5, ["aabb", "aaaabbbb"]]
    assert namespace["equal"] is True
