"""One benchmark sample, run in a fresh interpreter.

    python3 benchmark/sample.py setup
    python3 benchmark/sample.py unit WORKLOAD SEED BLOCK TRACE OUT_DIR

``setup`` imports the library and loads the goldens, prints the monotonic
clock, which is shared by all processes, and exits.  ``unit``
does the same, runs one block of the workload and prints one JSON line with
the op times, failures, the output digest and, with TRACE=1, the per-layer
figures of a traced run of the same block.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def load_library():
    if not (SRC / "hardy" / "__init__.py").is_file():
        sys.exit(f"no library sources at {SRC / 'hardy'}")
    sys.path.insert(0, str(SRC))
    import hardy
    from hardy import harness

    if Path(hardy.__file__).resolve().parent != (SRC / "hardy").resolve():
        sys.exit(f"imported hardy from {hardy.__file__}, not from {SRC}")
    harness.golden()
    return hardy


def main(argv: list[str]) -> int:
    if argv == ["setup"]:
        load_library()
        print(time.monotonic())
        return 0
    if len(argv) != 6 or argv[0] != "unit":
        sys.exit(__doc__)
    load_library()
    import units

    _, workload, seed, block, trace, out_dir = argv
    result = units.run(workload, int(seed), int(block), trace == "1", Path(out_dir))
    print(units.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
