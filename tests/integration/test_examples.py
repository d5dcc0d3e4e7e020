"""Smoke tests: every example script must run cleanly end to end, and
the documented quick starts (the README's block and the ``repro``
package docstring's) run as written."""

import pathlib
import runpy
import subprocess
import sys
import textwrap

import pytest

import repro

ROOT = pathlib.Path(__file__).parents[2]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_examples_exist():
    names = {p.name for p in EXAMPLES}
    assert "quickstart.py" in names
    assert len(EXAMPLES) >= 3


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(script):
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip(), "examples must print their results"


def test_quickstart_reports_headline_latency():
    script = next(p for p in EXAMPLES if p.name == "quickstart.py")
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True,
        timeout=300,
    )
    assert "162 ns" in proc.stdout


def test_quickstart_in_process_prints_162ns_and_the_gather(capsys):
    runpy.run_path(str(ROOT / "examples" / "quickstart.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert ("0-byte write, one X hop, send to successful poll: 162 ns   "
            "(paper: 162 ns)") in out
    assert "data: ['a0', 'a1', 'a2', 'b0', 'b1']" in out


def test_readme_quickstart_block_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme[readme.index("## Quickstart"):]
    block = section[section.index("```python\n") + len("```python\n"):]
    exec(compile(block[:block.index("```")], "README.md", "exec"), {})
    assert capsys.readouterr().out == "162 ns\n"


def test_package_docstring_quickstart_runs(capsys):
    doc = repro.__doc__
    body = doc[doc.index("Quick start::") + len("Quick start::"):]
    block = textwrap.dedent(body[:body.index("\nSee ")])
    exec(compile(block, "repro/__init__.py", "exec"), {})
    assert capsys.readouterr().out == "end-to-end latency: 162.0 ns\n"
