"""The repo's benchmark: four paper-scale workloads measured from outside.

Run it as ``python3 bench/run.py`` (see ``bench/README.md``).  The package
puts the checkout's ``src`` on ``sys.path`` so that the harness, its
self-test and ``compare.py`` all import the program the same way.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

if (ROOT / "src" / "repro").is_dir() and str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))
