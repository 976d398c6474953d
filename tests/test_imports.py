"""What importing the package costs every process.

The CLI runs one interpreter per verdict, so what ``import diffalg`` pulls in
is paid on every command.  The records are NamedTuples and plain classes:
``dataclasses`` would also import ``inspect``, ``ast``, ``dis`` and
``tokenize``, and exec-generate methods for each decorated class.  The CLI
imports ``traceback`` (with ``linecache`` and ``tokenize``) only for an
internal error, exit 4.
"""

import os
import subprocess
import sys

import diffalg

CHILD = r"""
import sys
import diffalg
assert "dataclasses" not in sys.modules, "import diffalg"
import diffalg.cli
assert "dataclasses" not in sys.modules, "import diffalg.cli"
for name in ("traceback", "tokenize", "linecache"):
    assert name not in sys.modules, name
"""


def test_the_package_does_not_import_dataclasses():
    src = os.path.dirname(os.path.dirname(os.path.abspath(diffalg.__file__)))
    path = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    # -S: no site hooks, so only the package's own imports are counted
    proc = subprocess.run([sys.executable, "-S", "-c", CHILD],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
