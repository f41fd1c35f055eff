"""Put ``src`` on the path of the ``keypose`` subprocesses the tests start,
and make a numpy ``RuntimeWarning`` fail them as it fails the tests.

The test process itself finds ``src`` through ``pythonpath`` and its warning
filter through ``filterwarnings`` in ``pyproject.toml``; child processes only
see ``PYTHONPATH`` and ``PYTHONWARNINGS``.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
os.environ["PYTHONWARNINGS"] = ",".join(
    filter(None, (os.environ.get("PYTHONWARNINGS"), "error::RuntimeWarning")))
