"""Count the lines and the code lines of the Python files in one directory.

    python3 tools/code_lines.py src/morsl

prints two numbers: the physical lines of the directory's *.py files
(not recursive), and their code lines.  A code line is a physical line
spanned by a token of a logical line that is not a single string literal
(a docstring); comments, blank lines and indentation do not count.
"""

import io
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENDMARKER}


def code_lines(src: str) -> int:
    lines, logical = set(), []
    for tok in tokenize.generate_tokens(io.StringIO(src).readline):
        if tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
            if not (len(logical) == 1 and logical[0].type == tokenize.STRING):
                for t in logical:
                    lines.update(range(t.start[0], t.end[0] + 1))
            logical = []
        elif tok.type not in SKIP:
            logical.append(tok)
    return len(lines)


def main(directory: str) -> None:
    paths = sorted(Path(directory).glob("*.py"))
    print(sum(len(p.read_text().splitlines()) for p in paths),
          sum(code_lines(p.read_text()) for p in paths))


if __name__ == "__main__":
    main(sys.argv[1])
