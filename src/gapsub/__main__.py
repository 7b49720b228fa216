"""Entry point for ``python -m gapsub``; same commands as ``gapsub``."""

from .cli import main

main()
