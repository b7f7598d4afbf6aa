"""Non-blank, non-comment lines of each src/nuggetnet module, and their total.

    python tests/count_lines.py

A line counts unless it is empty or holds only whitespace and a `#`
comment; docstrings count.  This is the figure CHANGES.md cites for the
package's size.  pytest does not collect this file.
"""

from __future__ import annotations

from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nuggetnet"


def code_lines(path: Path) -> int:
    lines = (line.strip() for line in path.read_text(encoding="utf-8").splitlines())
    return sum(1 for line in lines if line and not line.startswith("#"))


def main() -> None:
    counts = {path.name: code_lines(path) for path in sorted(PACKAGE.glob("*.py"))}
    width = max(map(len, counts))
    for name, n in counts.items():
        print(f"{name:<{width}}  {n:>5}")
    print(f"{'total':<{width}}  {sum(counts.values()):>5}")


if __name__ == "__main__":
    main()
