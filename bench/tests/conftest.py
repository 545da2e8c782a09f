"""Self-tests of the benchmark; run with ``python -m pytest bench/tests -q``
from the repository root (not part of tier-1)."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)
