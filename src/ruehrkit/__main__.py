"""``python -m ruehrkit``: the same command line as the ``ruehrkit`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
