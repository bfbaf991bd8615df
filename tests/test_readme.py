"""README's Quick tour runs as written and gives the values it annotates."""

import ast
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_tour() -> list:
    """(annotation, value) of each expression line of the Quick tour's python
    block, run statement by statement in one namespace."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Quick tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    lines, env, annotated = block.splitlines(), {}, []
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), env)
            annotated.append((lines[stmt.lineno - 1].partition("#")[2].strip(), value))
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), env)
    return annotated


def test_the_quick_tour_gives_the_values_it_annotates():
    (note_a, event), (note_b, cells), (note_c, window), (note_d, ratio) = _quick_tour()
    assert note_a == "1.5" and event == 1.5
    assert note_b == "[1.5, 4.5]" and list(cells) == [1.5, 4.5]
    assert note_c.startswith("~1.0") and abs(window - 1.0) <= 1e-4
    assert note_d.startswith("same value") and abs(ratio - 1.0) <= 1e-4
