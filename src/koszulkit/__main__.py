"""Run the command-line interface: python -m koszulkit ..."""

import sys

from .cli import main

sys.exit(main())
