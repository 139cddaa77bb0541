"""Every parameter default in ``src/richlab`` is a setting some call uses.

A default that no call overrides is a constant with a name that invites
callers to change it; it belongs inside the function that reads it.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALLERS = ("src", "tests", "demos", "tools", "perfbench")


def _trees(*dirs):
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield path, ast.parse(path.read_text(), str(path))


def _defaulted(tree):
    """(name, positional index or None, parameter) for each defaulted parameter.

    A method's index skips its ``self``; a class's ``__init__`` is listed
    under the class name, which is how it is called.
    """
    methods = {id(f): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for f in cls.body if isinstance(f, ast.FunctionDef)}
    for f in ast.walk(tree):
        if not isinstance(f, ast.FunctionDef):
            continue
        name, skip = f.name, 0
        if id(f) in methods and not any(getattr(d, "id", None) == "staticmethod"
                                        for d in f.decorator_list):
            skip = 1
            name = methods[id(f)] if f.name == "__init__" else f.name
        positional = f.args.posonlyargs + f.args.args
        for i, (arg, _) in enumerate(zip(positional[::-1], f.args.defaults[::-1])):
            yield name, len(positional) - 1 - i - skip, arg.arg
        for arg, default in zip(f.args.kwonlyargs, f.args.kw_defaults):
            if default is not None:
                yield name, None, arg.arg


def _passed():
    """Each called name mapped to the keywords and positional indices it is passed.

    A ``*args`` at index i may pass any index from i on, and a ``**kwargs``
    any keyword; both are counted as passing them.
    """
    passed = {}
    for _, tree in _trees(*CALLERS):
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name is None:
                continue
            seen = passed.setdefault(name, set())
            for i, a in enumerate(call.args):
                seen.add(i)
                if isinstance(a, ast.Starred):
                    seen.add(("*", i))
            for kw in call.keywords:
                seen.add(kw.arg if kw.arg is not None else "**")
    return passed


def _is_passed(seen, index, param):
    if param in seen or "**" in seen:
        return True
    if index is None:
        return False
    return index in seen or any(isinstance(s, tuple) and s[1] <= index for s in seen)


def test_every_parameter_default_is_passed_by_some_call():
    passed = _passed()
    never = sorted(
        f"{path.relative_to(ROOT)}: {name}({param}=...)"
        for path, tree in _trees("src/richlab")
        for name, index, param in _defaulted(tree)
        if not _is_passed(passed.get(name, set()), index, param)
    )
    assert not never, "defaults no call passes:\n" + "\n".join(never)
