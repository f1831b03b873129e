import sys
from pathlib import Path

# the benchmark drives the checkout's own sources, as run.py does
SRC = str(Path(__file__).resolve().parents[2] / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)
