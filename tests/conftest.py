"""Put ``src`` on the path of the ``keypose`` subprocesses the tests start.

The test process itself finds ``src`` through ``pythonpath`` in
``pyproject.toml``; child processes only see ``PYTHONPATH``.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
