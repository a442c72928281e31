"""``python3 -m petseg``: the same command line as the ``petseg`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
