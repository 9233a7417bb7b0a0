"""Makes ``perf/``'s flat modules importable: ``python -m pytest perf/tests``
(outside tier-1's ``testpaths``; ``repro`` itself comes from the root
``pyproject.toml``'s ``pythonpath``)."""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
