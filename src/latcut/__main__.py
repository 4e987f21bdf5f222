"""`python -m latcut`: the same command line as the `latcut` console script."""

from .cli import main

if __name__ == "__main__":
    main()
