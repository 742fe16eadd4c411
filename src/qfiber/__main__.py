"""`python -m qfiber`: the same command line as the `qfiber` script."""

import sys

from .cli import main

sys.exit(main())
