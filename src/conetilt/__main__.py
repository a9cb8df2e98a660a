"""`python -m conetilt ...` runs the command line front end of cli.py."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
