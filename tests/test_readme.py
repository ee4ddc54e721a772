"""The README's library example runs as written."""

from pathlib import Path

from seasonstats import entropy, shares
from seasonstats.report import DOCUMENT_NAMES

REPO_ROOT = Path(__file__).resolve().parent.parent


def _library_example():
    """The first Python block of the README's "Library use" section."""
    section = (REPO_ROOT / "README.md").read_text(encoding="utf-8").split("\n## Library use\n")[1]
    return section.split("\n```python\n", 1)[1].split("\n```\n", 1)[0]


def test_readme_library_example_runs(jscs_matrices, monkeypatch, capsys):
    monkeypatch.chdir(REPO_ROOT)  # the example opens data/ by a relative path
    exec(compile(_library_example(), "README.md", "exec"), {"__name__": "readme_example"})
    first, *documents = capsys.readouterr().out.splitlines()
    assert float(first) == entropy(shares(jscs_matrices[0]).cumulated)
    assert [line.split()[0] for line in documents] == list(DOCUMENT_NAMES)
    assert all(int(line.split()[1]) > 0 for line in documents)
