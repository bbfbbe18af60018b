"""Let child interpreters import this checkout's package, as the test process does.

``pythonpath = ["src"]`` in ``pyproject.toml`` reaches only the pytest process;
the CLI tests that start ``python -m rfiqsdc.cli`` read ``PYTHONPATH``.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
