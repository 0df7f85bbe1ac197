from __future__ import annotations

from hypothesis import settings

settings.register_profile("suite", derandomize=True, max_examples=60, deadline=None)
# more examples for the differential tests, chosen with --hypothesis-profile=deep
settings.register_profile("deep", derandomize=True, max_examples=500, deadline=None)
settings.load_profile("suite")


def words(paths) -> set[str]:
    """Render a collection of paths as plain strings, empty for identities."""
    return {"".join(p.gens) for p in paths}
