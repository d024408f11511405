"""The command line as a module: python -m ffdyn runs cli.main_entry."""

from .cli import main_entry

if __name__ == "__main__":
    main_entry()
