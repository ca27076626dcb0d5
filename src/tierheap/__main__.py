"""Run the benchmark driver: ``python3 -m tierheap [options]``."""
import sys

from .cli import main

sys.exit(main())
