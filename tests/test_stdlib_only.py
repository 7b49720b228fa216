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
