"""``python -m modalfuse``: the ``bench`` CLI, without installing the package."""

import sys

from .bench import main

if __name__ == "__main__":
    sys.exit(main())
