"""``python -m aoci``: the same entry point as the installed ``aoci`` script."""

import sys

from .cli import run

if __name__ == "__main__":
    sys.exit(run())
