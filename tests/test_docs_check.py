"""The docs-check tool (tools/check_docs.py) and the repo's own docs.

The CI docs-check step runs the script directly; these tests keep it
honest locally — the repo's documentation must pass, and the checker
must actually detect the violation classes it claims to.
"""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SCRIPT = REPO / "tools" / "check_docs.py"


def _load():
    spec = importlib.util.spec_from_file_location("check_docs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestRepoDocs:
    def test_repo_documentation_is_clean(self):
        result = subprocess.run(
            [sys.executable, str(SCRIPT)], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr

    def test_architecture_and_perf_docs_linked_from_readme(self):
        readme = (REPO / "README.md").read_text()
        assert "docs/ARCHITECTURE.md" in readme
        assert "docs/PERF.md" in readme


class TestChecker:
    def test_detects_broken_link_and_anchor(self, monkeypatch, tmp_path):
        module = _load()
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "REAL.md").write_text("# Real Heading\n")
        (tmp_path / "README.md").write_text(
            "[gone](missing.md) [bad](docs/REAL.md#nope) "
            "[ok](docs/REAL.md#real-heading) [ext](https://example.com)\n"
        )
        monkeypatch.setattr(module, "REPO", tmp_path)
        errors = module.check_links()
        assert any("missing.md" in e for e in errors)
        assert any("#nope" in e for e in errors)
        assert len(errors) == 2

    def test_fragment_only_links_check_same_file(self, monkeypatch, tmp_path):
        module = _load()
        (tmp_path / "README.md").write_text(
            "# Top Section\n[good](#top-section) [bad](#absent)\n"
        )
        monkeypatch.setattr(module, "REPO", tmp_path)
        errors = module.check_links()
        assert errors == ["README.md: missing anchor -> #absent"]

    def test_reports_missing_linked_doc(self, monkeypatch, tmp_path):
        module = _load()
        (tmp_path / "docs").mkdir()
        (tmp_path / "README.md").write_text("# Readme\n")
        monkeypatch.setattr(module, "REPO", tmp_path)
        assert module.check_linked_docs() == [
            "perfbench/README.md: listed in LINKED_DOCS but missing"
        ]
        (tmp_path / "perfbench").mkdir()
        (tmp_path / "perfbench" / "README.md").write_text("# Perf\n")
        assert module.check_linked_docs() == []

    def test_detects_missing_module_docstring(self, monkeypatch, tmp_path):
        module = _load()
        tree = tmp_path / "src" / "repro" / "sched"
        tree.mkdir(parents=True)
        (tree / "documented.py").write_text('"""Has one."""\n')
        (tree / "bare.py").write_text("x = 1\n")
        monkeypatch.setattr(module, "REPO", tmp_path)
        errors = module.check_module_docstrings()
        assert errors == ["src/repro/sched/bare.py: missing module docstring"]

    def test_slug_matches_github_convention(self):
        module = _load()
        assert module._slug("Testing strategy") == "testing-strategy"
        assert module._slug("Sweep throughput: `--workers N`") == (
            "sweep-throughput---workers-n"
        )
