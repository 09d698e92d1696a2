"""``python -m monopoles``: the same command line as the ``monopoles`` script."""

import sys

from .cli import main

sys.exit(main())
