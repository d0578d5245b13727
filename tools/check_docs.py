#!/usr/bin/env python
"""Link-check the documentation: no dead relative links, no phantom figures.

Checks, over ``README.md`` and every ``docs/*.md``:

1. every relative markdown link resolves to an existing file;
2. every ``#fragment`` pointing into a checked markdown file matches a
   heading anchor (GitHub slug rules, simplified);
3. every figure-shaped token (``figN``/``figNx``/``tableN``/``ablation``)
   mentioned anywhere in the docs names a real experiment in the CLI
   (``repro.harness.scenarios.PAPER_FIGURES``);
4. every experiment the CLI exposes is documented in
   ``docs/EXPERIMENTS.md``.

Run from the repository root (CI's docs job does)::

    PYTHONPATH=src python tools/check_docs.py
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: Markdown inline links: [text](target) — excluding images' alt ! prefix
#: is irrelevant here; schemes and pure anchors are filtered below.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
#: Figure-shaped tokens: fig5a, fig10, table1, ablation.
FIGURE_RE = re.compile(r"\b(fig\d+[a-z]?|table\d+|ablation)\b")


def github_slug(heading: str) -> str:
    """GitHub's heading-anchor slug, simplified (ASCII-ish docs only)."""
    slug = heading.strip().lower()
    slug = re.sub(r"[`*_]", "", slug)
    slug = re.sub(r"[^\w\- ]", "", slug)
    return slug.replace(" ", "-")


def doc_files() -> list[Path]:
    files = [REPO / "README.md"]
    files.extend(sorted((REPO / "docs").glob("*.md")))
    return [f for f in files if f.exists()]


def check_links(files: list[Path]) -> list[str]:
    errors = []
    anchors = {
        f: {github_slug(h) for h in HEADING_RE.findall(f.read_text())}
        for f in files
    }
    for f in files:
        for target in LINK_RE.findall(f.read_text()):
            if re.match(r"^[a-z][a-z0-9+.-]*:", target):  # http:, mailto:, ...
                continue
            path_part, _, fragment = target.partition("#")
            dest = f if not path_part else (f.parent / path_part).resolve()
            if not dest.exists():
                errors.append(f"{f.relative_to(REPO)}: dead link -> {target}")
                continue
            if fragment and dest in anchors and fragment not in anchors[dest]:
                errors.append(
                    f"{f.relative_to(REPO)}: dead anchor -> {target} "
                    f"(no heading slug {fragment!r})"
                )
    return errors


def check_figures(files: list[Path]) -> list[str]:
    sys.path.insert(0, str(REPO / "src"))
    from repro.harness.scenarios import PAPER_FIGURES

    errors = []
    known = set(PAPER_FIGURES)
    mentioned_anywhere = set()
    for f in files:
        mentioned = set(FIGURE_RE.findall(f.read_text()))
        mentioned_anywhere |= mentioned
        for name in sorted(mentioned - known):
            errors.append(
                f"{f.relative_to(REPO)}: mentions {name!r}, which is not an "
                f"experiment the CLI exposes ({', '.join(sorted(known))})"
            )
    experiments_md = REPO / "docs" / "EXPERIMENTS.md"
    documented = (
        set(FIGURE_RE.findall(experiments_md.read_text()))
        if experiments_md.exists()
        else set()
    )
    for name in sorted(known - documented):
        errors.append(f"docs/EXPERIMENTS.md: experiment {name!r} is undocumented")
    return errors


def check_scenarios(files: list[Path]) -> list[str]:
    """Cross-check scenario names between the docs and the registry.

    1. every registered scenario is documented in docs/SCENARIOS.md;
    2. every ``--scenario NAME`` example anywhere in the docs names a
       registered scenario.
    """
    sys.path.insert(0, str(REPO / "src"))
    from repro.harness.scenarios import list_scenarios

    errors = []
    registered = set(list_scenarios())
    scenarios_md = REPO / "docs" / "SCENARIOS.md"
    if not scenarios_md.exists():
        errors.append("docs/SCENARIOS.md: missing (scenario reference)")
        return errors
    text = scenarios_md.read_text()
    for name in sorted(registered):
        if not re.search(rf"\b{re.escape(name)}\b", text):
            errors.append(f"docs/SCENARIOS.md: scenario {name!r} is undocumented")
    flag_re = re.compile(r"--scenario[= ]([A-Za-z0-9_]+)")
    for f in files:
        for name in sorted(set(flag_re.findall(f.read_text())) - {"NAME"}):
            if name not in registered:
                errors.append(
                    f"{f.relative_to(REPO)}: '--scenario {name}' names an "
                    f"unregistered scenario ({', '.join(sorted(registered))})"
                )
    return errors


def main() -> int:
    files = doc_files()
    errors = check_links(files) + check_figures(files) + check_scenarios(files)
    for error in errors:
        print(f"check_docs: {error}", file=sys.stderr)
    if errors:
        print(f"check_docs: {len(errors)} error(s)", file=sys.stderr)
        return 1
    print(f"check_docs: OK ({len(files)} files)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
