"""Put the benchmark's modules and the program's sources on the path.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository
root; the repository's own suite (``tests/``) does not collect these.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
