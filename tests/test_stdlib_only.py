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
