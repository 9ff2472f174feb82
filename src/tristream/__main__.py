"""``python -m tristream``: the same command line as the ``tristream`` script."""

from .cli import entry_point

if __name__ == "__main__":
    entry_point()
