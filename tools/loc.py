"""Code lines of Python modules, beside their ``wc -l`` line counts.

    python3 tools/loc.py [FILE ...]      (default: src/fraclsq/*.py)

A code line is a physical line that holds at least one token of a statement.
Comments, blank lines and docstrings (a statement that is a string literal
alone, at any depth) are left out; a string that is part of an expression
counts on every line it spans.  One row per module, then the total.
"""

import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: tokens that carry no code and bound no statement
_NOISE = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}
#: tokens that carry no code but end a statement or open or close a block
_LAYOUT = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source):
    """The number of code lines of the Python ``source`` text."""
    tokens = [t for t in tokenize.tokenize(io.BytesIO(source.encode()).readline)
              if t.type not in _NOISE]
    lines = set()
    for i, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            continue
        alone = (i == 0 or tokens[i - 1].type in _LAYOUT) and \
            tokens[i + 1].type == tokenize.NEWLINE
        if tok.type == tokenize.STRING and alone:
            continue  # a docstring
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv):
    paths = [Path(p) for p in argv] or sorted((ROOT / "src" / "fraclsq").glob("*.py"))
    total_code = total_lines = 0
    print(f"{'code':>6} {'wc -l':>6}  module")
    for path in paths:
        text = path.read_text(encoding="utf-8")
        code, lines = code_lines(text), text.count("\n")
        total_code, total_lines = total_code + code, total_lines + lines
        print(f"{code:6d} {lines:6d}  {path.name}")
    print(f"{total_code:6d} {total_lines:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
