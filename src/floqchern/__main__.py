"""`python -m floqchern`: the command-line front end (see `floqchern.cli`)."""

import sys

from .cli import main

sys.exit(main())
