"""``python -m repro.analysis``: an alias of ``repro analyze``."""

import sys

from ..cli import main

sys.exit(main(["analyze", *sys.argv[1:]]))
