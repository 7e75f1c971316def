"""Make the package importable in the interpreters some tests start.

pytest puts ``src`` on ``sys.path`` (``pythonpath`` in pyproject.toml),
but a child ``python -m wgtoffoli.cli`` only sees ``PYTHONPATH``. The
golden-file tests share the ``records`` fixture.
"""

import importlib.util
import os
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture(scope="session")
def records():
    """``tools/records.py``, loaded by path: the CLI cases and the golden-file reader."""
    spec = importlib.util.spec_from_file_location("records", ROOT / "tools" / "records.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
