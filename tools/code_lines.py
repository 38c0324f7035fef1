"""Count the code lines of each module of src/pnrlidar and their total.

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
PACKAGE = "src/pnrlidar"
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


def _sources(rev: str | None) -> dict[str, str]:
    if rev is None:
        return {path.name: path.read_text() for path in sorted((ROOT / PACKAGE).glob("*.py"))}
    names = subprocess.run(["git", "ls-tree", "--name-only", f"{rev}:{PACKAGE}"], cwd=ROOT,
                           check=True, capture_output=True, text=True).stdout.split()
    return {name: subprocess.run(["git", "show", f"{rev}:{PACKAGE}/{name}"], cwd=ROOT, check=True,
                                 capture_output=True, text=True).stdout
            for name in sorted(names) if name.endswith(".py")}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", default=None, help="a git revision to count instead of the working tree")
    args = parser.parse_args(argv)
    counts = {name: code_lines(text) for name, text in _sources(args.rev).items()}
    for name, count in counts.items():
        print(f"{name:20} {count:6,}")
    print(f"{'total':20} {sum(counts.values()):6,}")


if __name__ == "__main__":
    main()
