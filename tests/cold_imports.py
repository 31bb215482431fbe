"""Check that importing the package and its CLI loads no fuzz-only module.

Only ``fuzz`` uses process pools, CSV output and the median, so
``verify.py`` imports them inside the functions that need them, and every
other command starts without them.  Run in a fresh interpreter:

    python tests/cold_imports.py

It exits 0, or names the modules that were loaded and exits 1.
"""

import sys

FUZZ_ONLY = ("concurrent.futures", "multiprocessing", "socket", "csv", "statistics")

if __name__ == "__main__":
    import joinforge  # noqa: F401
    import joinforge.cli  # noqa: F401

    loaded = [name for name in FUZZ_ONLY if name in sys.modules]
    if loaded:
        sys.exit(f"import joinforge, joinforge.cli loaded {', '.join(loaded)}")
