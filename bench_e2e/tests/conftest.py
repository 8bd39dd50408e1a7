"""Self-tests of the ledger: ``python -m pytest bench_e2e/tests -q``.

Not part of the repository's tier-1 collection (``testpaths = ["tests"]``).
"""

import sys

from bench_e2e import PROGRAM_SRC, ROOT

for path in (ROOT, PROGRAM_SRC):
    if path not in sys.path:
        sys.path.insert(0, path)
