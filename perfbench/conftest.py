import sys
from pathlib import Path

# the benchmark measures the source tree beside it, never an installed copy
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
