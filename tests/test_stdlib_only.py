import ast
import os
import subprocess
import sys

import gapsub

# Runs in a fresh interpreter without site's start-up hooks (-S), so .pth
# files load nothing; site-packages stay on the path, so an import of a
# third-party package would succeed and be seen.
PROBE = """
import site, sys
sys.path[:0] = [SRC, *site.getsitepackages()]
import gapsub, gapsub.cli
from gapsub import GappedSequence, LengthGap, Word, match
assert match(Word((1, 2, 1)), GappedSequence(Word((1, 1)), (LengthGap(0, 3),))).positions == (1, 3)
# the analyses are sequential: nothing may pull in a process pool
assert "multiprocessing" not in sys.modules, "multiprocessing was imported"
allowed = set(sys.stdlib_module_names) | {"gapsub", "__main__"}
print(sorted({name.partition(".")[0] for name in sys.modules} - allowed))
"""


def test_library_and_cli_load_only_the_standard_library():
    src = os.path.dirname(os.path.dirname(os.path.abspath(gapsub.__file__)))
    probe = PROBE.replace("SRC", repr(src), 1)
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def _unused_imports(path):
    tree = ast.parse(open(path, encoding="utf-8").read(), path)
    imported = {}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(name, line) for name, line in imported.items() if name not in used | exported]


def test_every_import_in_the_package_is_used():
    # a name a module imports is used there or re-exported through __all__
    pkg = os.path.dirname(os.path.abspath(gapsub.__file__))
    unused = {
        name: _unused_imports(os.path.join(pkg, name))
        for name in sorted(os.listdir(pkg))
        if name.endswith(".py")
    }
    assert {name: found for name, found in unused.items() if found} == {}


def _private_names(tree):
    """Module-level names starting with one underscore that the module defines."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        names.add(sub.id)
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def test_every_private_helper_in_the_package_is_used():
    # a deleted caller must not leave its module-level helper behind
    pkg = os.path.dirname(os.path.abspath(gapsub.__file__))
    defined, used = {}, set()
    for name in sorted(os.listdir(pkg)):
        if not name.endswith(".py"):
            continue
        tree = ast.parse(open(os.path.join(pkg, name), encoding="utf-8").read(), name)
        defined.update(dict.fromkeys(_private_names(tree), name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    assert {n: m for n, m in defined.items() if n not in used} == {}


def _callers(tree, callee):
    """The innermost function around each call of callee, by name."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == callee:
                found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, None)
    return found


def _package_callers(callee):
    """(module file, innermost function) of each call of callee in the package."""
    pkg = os.path.dirname(os.path.abspath(gapsub.__file__))
    sites = []
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            tree = ast.parse(open(os.path.join(pkg, name), encoding="utf-8").read(), name)
            sites.extend((name, where) for where in _callers(tree, callee))
    return sites


def test_gap_steps_are_built_in_one_place():
    # every GapStep comes from matchers.gap_steps, which builds one per
    # distinct constraint of a word: no caller builds one per gap
    assert _package_callers("GapStep") == [("matchers.py", "gap_steps")]


def test_counting_nfa_is_built_only_by_its_normalizing_callers():
    # CountingNfa takes constraints as given: every caller normalizes them
    # first, and the public door is build_counting_nfa
    assert sorted(_package_callers("CountingNfa")) == [
        ("multiplicity.py", "build_counting_nfa"),
        ("multiplicity.py", "count_embeddings"),
        ("multiplicity.py", "parikh_k"),
    ]
    assert "CountingNfa" not in gapsub.__all__
