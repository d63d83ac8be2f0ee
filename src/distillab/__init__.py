"""distillab: a deterministic desk-scale knowledge-distillation laboratory.

A from-scratch numpy training stack (dense/conv networks with hand-written
backward passes), the four classic mixing/masking augmentation strategies
with exact soft-label algebra, a temperature-scaled distillation objective,
and a battery of calibration and embedding-geometry metrics — all seeded,
all reproducible bitwise, all checked against brute-force oracles.

The API is the submodules (`distillab.data`, `distillab.nn`, ...) and the
`distillab` command; the package itself re-exports nothing.
"""

__version__ = "0.1.0"
