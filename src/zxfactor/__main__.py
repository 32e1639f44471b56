"""``python -m zxfactor``: the command-line interface, without an install."""

from .cli import main

if __name__ == "__main__":
    main()
