"""End-to-end benchmark: three workloads, end-to-end metrics, per-layer trace.

``python3 benchmarks/e2e/run.py --workload <name> --seed <n>`` runs one
workload; see ``README.md`` in this directory for the workloads, the
metrics and how to read a trace.

The benchmark measures the library built from the ``src/`` tree of the
checkout it sits in, never an installed copy: importing this package
puts that ``src/`` first on ``sys.path`` and fails when it is missing.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

if not (SRC / "repro" / "__init__.py").is_file():
    raise ImportError(
        f"no library source at {SRC / 'repro'}: run the benchmark from a "
        "checkout that holds src/"
    )
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
