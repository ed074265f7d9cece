"""``python -m isingsweep``: the command line of :mod:`isingsweep.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
