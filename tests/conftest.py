"""Make the package importable in the interpreters some tests start.

pytest puts ``src`` on ``sys.path`` (``pythonpath`` in pyproject.toml),
but a child ``python -m wgtoffoli.cli`` only sees ``PYTHONPATH``.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
