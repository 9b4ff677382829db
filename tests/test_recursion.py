"""No library function recurses, so no input can exhaust the call stack.

Each module's call graph is read from its source: an edge for every call by
a bare name that resolves to a function of the module (nested functions
included) and for every ``self.``/``cls.`` call to a method of the enclosing
class.  A function on a cycle of that graph recurses.
"""

import ast

import pytest

from test_exports import MODULES, PACKAGE

ALLOWED: set[str] = set()


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def recursive_functions(source: str) -> set[str]:
    """Qualified names of the functions on a cycle of the module's call graph."""
    calls: dict[str, set[str]] = {}
    # Each entry: a module, class or function, its qualified name, the
    # enclosing class, and the functions that calls in it can name.
    work = [(ast.parse(source), "", None, {})]
    while work:
        scope, name, cls, visible = work.pop()
        defs, called = [], []
        stack = list(ast.iter_child_nodes(scope))
        while stack:
            node = stack.pop()
            if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
                defs.append(node)  # read as an entry of its own
                continue
            if isinstance(node, ast.Call):
                called.append(node.func)
            stack.extend(ast.iter_child_nodes(node))
        prefix = f"{name}." if name else ""
        if not isinstance(scope, ast.ClassDef):
            visible = {**visible, **{d.name: prefix + d.name for d in defs
                                     if isinstance(d, FUNCTIONS)}}
        if isinstance(scope, FUNCTIONS):
            calls[name] = targets = set()
            for f in called:
                if isinstance(f, ast.Name) and f.id in visible:
                    targets.add(visible[f.id])
                elif (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
                      and f.value.id in ("self", "cls") and cls is not None):
                    targets.add(f"{cls}.{f.attr}")
        for d in defs:
            inner = prefix + d.name
            work.append((d, inner, inner if isinstance(d, ast.ClassDef) else cls, visible))

    on_cycle = set()
    for start in calls:
        seen, frontier = set(), list(calls[start])
        while frontier:
            f = frontier.pop()
            if f == start:
                on_cycle.add(start)
                break
            if f not in seen:
                seen.add(f)
                frontier.extend(calls.get(f, ()))
    return on_cycle


def test_the_guard_finds_recursion():
    source = '''
def direct(n):
    return direct(n - 1)

def outer(n):
    def inner(k):
        return inner(k - 1)
    return inner(n) + leaf(n)

def leaf(n):
    return n

class Parser:
    def union(self):
        return self.atom()

    def atom(self):
        return self.union()

    def flat(self):
        return self.atom()
'''
    assert recursive_functions(source) == {
        "direct", "outer.inner", "Parser.union", "Parser.atom"}


@pytest.mark.parametrize("name", MODULES)
def test_no_recursion(name):
    found = {f"{name}.{f}" for f in recursive_functions((PACKAGE / f"{name}.py").read_text())}
    assert not found - ALLOWED, sorted(found - ALLOWED)
