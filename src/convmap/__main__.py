"""``python -m convmap <subcommand>``: the convmap CLI without an install."""

from .cli import main_entry

if __name__ == "__main__":
    main_entry()
