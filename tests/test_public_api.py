"""Public-surface tests: every exported name resolves and round-trips.

The ``__init__`` re-export lists are maintained by hand; these tests
keep them honest — every ``__all__`` entry must exist, and the
headline imports users copy from the README must keep working.
"""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.core",
    "repro.multiq",
    "repro.xpath",
    "repro.stream",
    "repro.obs",
    "repro.baselines",
    "repro.datasets",
    "repro.bench",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_exports_resolve(package):
    module = importlib.import_module(package)
    assert hasattr(module, "__all__"), package
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{package}: __all__ entries missing: {missing}"


@pytest.mark.parametrize("package", PACKAGES)
def test_no_duplicate_all_entries(package):
    module = importlib.import_module(package)
    assert len(module.__all__) == len(set(module.__all__)), package


def test_top_level_readme_imports():
    import repro

    assert callable(repro.evaluate)
    assert repro.XPathStream and repro.TwigM and repro.compile_query
    assert isinstance(repro.__version__, str)

    from repro.core.fragments import evaluate_fragments  # noqa: F401
    from repro.core.filtering import FilterSet  # noqa: F401
    from repro.multiq import MultiQueryEngine  # noqa: F401
    from repro.stream import resolve_namespaces  # noqa: F401


def test_error_types_exported_at_top_level():
    import repro

    for name in ("ReproError", "XPathSyntaxError", "XmlSyntaxError",
                 "UnsupportedQueryError", "StreamStateError"):
        assert hasattr(repro, name), name


def test_version_matches_pyproject():
    import re
    from pathlib import Path

    import repro

    # src/repro/__init__.py -> parents: [repro, src, repo-root]
    pyproject = Path(repro.__file__).resolve().parents[2] / "pyproject.toml"
    if not pyproject.exists():  # installed non-editable: skip
        pytest.skip("pyproject.toml not adjacent")
    match = re.search(r'^version = "([^"]+)"', pyproject.read_text(), re.M)
    assert match and match.group(1) == repro.__version__
