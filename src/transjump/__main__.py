"""``python -m transjump``: the command line of transjump.cli."""
from .cli import main

raise SystemExit(main())
