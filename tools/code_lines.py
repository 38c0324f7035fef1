"""Count the code lines of each module of src/pnrlidar and of the test code, with their totals.

The package's table counts src/pnrlidar/*.py; the tests' table counts
tests/*.py and tests/data/record.py.

A code line is a source line that holds a token other than a comment, a
docstring or layout (newlines, indents).  A docstring is a string that makes
up a whole statement, as the first statement of a module, class or function
does.  Run from the repository root:

    python tools/code_lines.py               # the working tree
    python tools/code_lines.py --rev HEAD~3  # a commit, read through git
"""

from __future__ import annotations

import argparse
import io
import subprocess
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# each table's directory, whose top-level .py files it counts, and the files below it that it also counts
TABLES = {"src/pnrlidar": (), "tests": ("data/record.py",)}
_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.NL}


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(source).readline) if t.type != tokenize.COMMENT]
    lines = set()
    for previous, token, following in zip([None, *tokens], tokens, [*tokens[1:], None]):
        docstring = (token.type == tokenize.STRING and (previous is None or previous.type in _STATEMENT_START)
                     and (following is None or following.type in (tokenize.NEWLINE, tokenize.ENDMARKER)))
        if token.type not in _LAYOUT and not docstring:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout


def _sources(directory: str, rev: str | None) -> dict[str, str]:
    """The counted files of ``directory``'s table, by their paths below it, and their text."""
    if rev is None:
        names = [path.relative_to(ROOT / directory).as_posix() for path in (ROOT / directory).rglob("*.py")]
    else:
        names = _git("ls-tree", "-r", "--name-only", f"{rev}:{directory}").split()
    counted = sorted(name for name in names if name in TABLES[directory] or ("/" not in name and name.endswith(".py")))
    if rev is None:
        return {name: (ROOT / directory / name).read_text() for name in counted}
    return {name: _git("show", f"{rev}:{directory}/{name}") for name in counted}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", default=None, help="a git revision to count instead of the working tree")
    args = parser.parse_args(argv)
    for i, directory in enumerate(TABLES):
        counts = {name: code_lines(text) for name, text in _sources(directory, args.rev).items()}
        print(f"{directory}/" if i == 0 else f"\n{directory}/")
        for name, count in counts.items():
            print(f"{name:24} {count:6,}")
        print(f"{'total':24} {sum(counts.values()):6,}")


if __name__ == "__main__":
    main()
