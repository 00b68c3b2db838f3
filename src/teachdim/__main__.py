"""``python -m teachdim``: the command-line interface of teachdim.cli."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
