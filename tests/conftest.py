"""Interpreters the tests start import gsdyn from this checkout's src, like the
test process does through pyproject's pythonpath."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
