"""`python -m speckin`: the `speckin` command line."""

import sys

from .cli import main

sys.exit(main())
