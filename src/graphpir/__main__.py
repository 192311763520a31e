"""`python -m graphpir`: the same front end as the `graphpir` command."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
