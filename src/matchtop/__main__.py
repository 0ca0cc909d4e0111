"""``python -m matchtop ...``: the command-line interface without an
installed ``matchtop`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
