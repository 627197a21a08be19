"""Verification lab for Kapustin-Witten fields with Nahm pole data on S^3 x R+.

The package body imports nothing, so `import kwlab` loads neither numpy nor
a kwlab module: `python -m kwlab.cli` imports the package before it runs
`cli`, and `cli` pauses the garbage collector before its own imports (see
`kwlab.cli`).  Import the modules by name: `kwlab.forms`, `kwlab.profiles`,
`kwlab.cli` and the others.
"""

__version__ = "0.1.0"
