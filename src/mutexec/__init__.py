"""Program generation, mutation, and execution-reasoning evaluation toolkit."""

# the one place the version is set (pyproject.toml reads it); a change to
# what a seed samples bumps it
__version__ = "0.2.0"
