"""bench_e2e — the layered end-to-end performance ledger.

Six workloads drive the similarity engine the way a user does
(``QuerySession.execute``, ``engine.plan(QuerySpec).execute()``,
``save_engine``/``load_engine``), check sampled answers against a
brute-force oracle that shares no code with ``src/repro``, and report
end-to-end metrics (tracing off) plus per-layer metrics (spans installed
from outside, in :mod:`bench_e2e.spans`).  See ``README.md`` here.

The package splits along the process boundary:

* the **parent** (``__main__``, ``workloads``, ``oracle``, ``metrics``,
  ``compare``, ``spread``) generates inputs from the seed, checks answers
  and reports; it never imports ``repro``;
* the **child** (``runner``, ``spans``) is the program under test plus the
  timing loop; it receives arrays and statements, never the seed.
"""

import os

#: root of the checkout the benchmark runs in (the directory above this package).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: where the program under test lives; the benchmark refuses to run without it.
PROGRAM_SRC = os.path.join(ROOT, "src")
