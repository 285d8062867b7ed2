"""Static checks on the package source."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "dressian"


def unread_parameters(path: Path) -> list[str]:
    """`module.function(parameter)` for each parameter of a function or
    lambda in the file that its body never reads; `self`, `cls` and the
    parameters of dunder methods are skipped."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        name = getattr(node, "name", "<lambda>")
        if name.startswith("__") and name.endswith("__"):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                  *filter(None, (args.vararg, args.kwarg))]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [f"{path.stem}.{name}({p.arg})" for p in params
                  if p.arg not in ("self", "cls") and p.arg not in read]
    return found


def test_every_parameter_is_read():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 8
    assert [hit for path in paths for hit in unread_parameters(path)] == []


def test_unread_parameter_is_reported(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("def f(a, b, *rest, c=0, **kw):\n    return a + c\n"
                    "class K:\n    def m(self, x):\n        return 1\n"
                    "    def __exit__(self, *exc):\n        pass\n"
                    "g = lambda y, z: y\n")
    assert unread_parameters(path) == ["sample.f(b)", "sample.f(rest)", "sample.f(kw)",
                                       "sample.m(x)", "sample.<lambda>(z)"]
