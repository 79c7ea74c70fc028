import hypothesis
import pytest

from eprkit import cli

hypothesis.settings.register_profile(
    "default", max_examples=25, deadline=None, derandomize=True
)
hypothesis.settings.load_profile("default")


@pytest.fixture(autouse=True)
def _fresh_cli_caches():
    """Every per-process cache of the CLI emptied before each test, so that no count or hit
    a test asserts depends on the tests run before it."""
    for cache in (cli._loaded, cli._bell_table, cli._dump_text):
        cache.cache_clear()
