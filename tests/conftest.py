"""Suite-wide settings.

Tests share the Lax contexts of ``gd_context(r)``, one per r, so the
expensive roots are computed once per pytest process: the cache keeps the
32 most recently used, and a full run asks for fewer, so none is evicted.
A test that needs a capped or a fresh root builds ``GDContext(r, depth)``
itself.

Hypothesis runs derandomized, so each run draws the same examples and the
suite's time is comparable between runs; every test keeps its own
max_examples."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
