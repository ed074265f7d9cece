"""Every source file parses as the oldest Python that pyproject.toml supports."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_sources_parse_as_oldest_supported_python():
    # no interpreter of that version is needed: the parser's feature_version
    # rejects newer syntax, such as except*
    spec = re.search(r'requires-python = ">=(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text())
    oldest = (int(spec[1]), int(spec[2]))
    files = sorted(p for d in ("src", "bench", "tests") for p in (ROOT / d).rglob("*.py"))
    assert len(files) > 20
    for path in files:
        ast.parse(path.read_text(), filename=str(path), feature_version=oldest)
