"""Shared context depths, so the expensive Lax roots are computed once per
pytest process: gd_context keeps the 32 most recently used (r, depth)
contexts, and a full run asks for fewer, so none is evicted.

Hypothesis runs derandomized, so each run draws the same examples and the
suite's time is comparable between runs; every test keeps its own
max_examples."""

from hypothesis import settings

from drhier.gdhier import gd_context

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

CTX_DEPTH = {2: 13, 3: 16, 4: 12, 5: 13}


def ctx_for(r):
    return gd_context(r, CTX_DEPTH[r])
