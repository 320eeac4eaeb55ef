"""Docs/code contract tests for the observability layer.

``docs/observability.md`` is the telemetry contract: its event-taxonomy and
schema-field tables must match the code exactly (both directions), and the
cross-references in every docs page must resolve to real modules/files.
Companion of ``tests/test_docstrings.py``, which enforces docstrings on the
code side.
"""

import importlib
import re
from pathlib import Path

import pytest

from repro.obs.events import EVENT_TYPES
from repro.obs.export import METRIC_FIELDS, RUN_FIELDS
from repro.obs.spans import SPAN_NAMES
from repro.perf.backends import KERNEL_METHODS, NumpyKernel

REPO = Path(__file__).resolve().parent.parent
DOC = REPO / "docs" / "observability.md"
BACKENDS_DOC = REPO / "docs" / "backends.md"

DOC_PAGES = sorted((REPO / "docs").glob("*.md")) + [REPO / "README.md"]


def _section(text: str, heading: str) -> str:
    """The body of the markdown section titled *heading* (any level), up to
    the next heading of the same or shallower level."""
    pattern = rf"^(#+)\s+{re.escape(heading)}\s*$"
    match = re.search(pattern, text, flags=re.MULTILINE)
    assert match, f"section {heading!r} missing from {DOC}"
    level = len(match.group(1))
    rest = text[match.end():]
    nxt = re.search(rf"^#{{1,{level}}}\s", rest, flags=re.MULTILINE)
    return rest[: nxt.start()] if nxt else rest


def _table_names(section: str) -> set:
    """First-column backticked identifiers of every markdown table row."""
    return set(re.findall(r"^\|\s*`([^`|]+)`", section, flags=re.MULTILINE))


class TestObservabilityContract:
    """The documented lists are diffed against the schema, both ways."""

    def test_event_taxonomy_matches_code(self):
        documented = _table_names(_section(DOC.read_text(), "Event taxonomy"))
        in_code = {cls.__name__ for cls in EVENT_TYPES}
        assert documented == in_code, (
            f"docs-only: {documented - in_code}; "
            f"undocumented: {in_code - documented}"
        )

    def test_span_taxonomy_matches_code(self):
        documented = _table_names(_section(DOC.read_text(), "Span taxonomy"))
        in_code = set(SPAN_NAMES)
        assert documented == in_code, (
            f"docs-only: {documented - in_code}; "
            f"undocumented: {in_code - documented}"
        )

    def test_run_record_fields_match_schema(self):
        documented = _table_names(_section(DOC.read_text(), "Run record fields"))
        assert documented == set(RUN_FIELDS), (
            f"docs-only: {documented - set(RUN_FIELDS)}; "
            f"undocumented: {set(RUN_FIELDS) - documented}"
        )

    def test_metric_fields_match_schema(self):
        documented = _table_names(_section(DOC.read_text(), "Metric fields"))
        assert documented == set(METRIC_FIELDS), (
            f"docs-only: {documented - set(METRIC_FIELDS)}; "
            f"undocumented: {set(METRIC_FIELDS) - documented}"
        )

    def test_bench_runs_cover_only_documented_fields(self):
        """A real quick-matrix record stays inside the documented schema."""
        from repro.obs.bench import QUICK_MATRIX, run_mcs_bench

        record = run_mcs_bench(QUICK_MATRIX[0])
        assert set(record) <= set(RUN_FIELDS)
        assert set(record["metrics"]) <= set(METRIC_FIELDS)


class TestBackendsContract:
    """``docs/backends.md``'s method table, ``KERNEL_METHODS`` and
    ``NumpyKernel``'s public methods are diffed pairwise, both directions —
    same idiom as the telemetry contract above."""

    def test_kernel_method_table_matches_code(self):
        documented = _table_names(
            _section(BACKENDS_DOC.read_text(), "Kernel methods")
        )
        assert documented == set(KERNEL_METHODS), (
            f"docs-only: {documented - set(KERNEL_METHODS)}; "
            f"undocumented: {set(KERNEL_METHODS) - documented}"
        )

    def test_kernel_methods_match_numpy_kernel(self):
        public = {
            name
            for name, value in vars(NumpyKernel).items()
            if not name.startswith("_") and callable(value)
        }
        assert public == set(KERNEL_METHODS), (
            f"unlisted: {public - set(KERNEL_METHODS)}; "
            f"missing: {set(KERNEL_METHODS) - public}"
        )


def test_shard_fault_matrix_identical_in_both_pages():
    """The shard × fault composition matrix is stated in both
    ``docs/robustness.md`` and ``docs/scale.md``; the two copies must stay
    literally identical (same rows, same guarantees)."""

    def matrix(page):
        text = (REPO / "docs" / page).read_text()
        section = _section(text, "Shard × fault composition")
        rows = [l for l in section.splitlines() if l.startswith("|")]
        assert len(rows) >= 6, f"{page}: composition matrix missing rows"
        return rows

    assert matrix("robustness.md") == matrix("scale.md")


def _linked_pages(text: str) -> set:
    """Filenames of every ``docs/*.md`` page linked from *text* (markdown
    link targets, with or without the ``docs/`` prefix)."""
    targets = re.findall(r"\]\(([^)#\s]+\.md)", text)
    return {Path(t).name for t in targets}


def test_every_docs_page_linked_from_readme_and_index():
    """The repo ``README.md`` and the ``docs/README.md`` index must both
    link every documentation page — no orphaned docs."""
    pages = {p.name for p in (REPO / "docs").glob("*.md")} - {"README.md"}
    for source in (REPO / "README.md", REPO / "docs" / "README.md"):
        missing = pages - _linked_pages(source.read_text())
        assert not missing, f"{source}: unlinked docs pages: {sorted(missing)}"


def _resolve_module_ref(ref: str) -> bool:
    """True iff a dotted ``repro.…`` reference resolves to a module or an
    attribute chain hanging off one."""
    parts = ref.split(".")
    obj = None
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for attr in parts[i:]:
            obj = getattr(obj, attr, None)
            if obj is None:
                return False
        return True
    return False


def _candidate_paths(ref: str):
    yield REPO / ref
    yield REPO / "src" / "repro" / ref
    yield REPO / "docs" / ref
    yield REPO / "tests" / ref
    yield REPO / "benchmarks" / ref


@pytest.mark.parametrize("page", DOC_PAGES, ids=lambda p: p.name)
def test_docs_cross_references_resolve(page):
    """Every backticked ``repro.…`` dotted reference and every backticked
    ``*.py`` / ``*.md`` path in the docs must point at something real."""
    text = page.read_text()
    broken = []
    for token in re.findall(r"`([^`\n]+)`", text):
        token = token.strip().rstrip("()")
        if re.fullmatch(r"repro(\.[A-Za-z_][A-Za-z0-9_]*)+", token):
            if not _resolve_module_ref(token):
                broken.append(token)
        elif re.fullmatch(r"[\w./-]+\.(py|md)", token):
            if not any(p.exists() for p in _candidate_paths(token)):
                broken.append(token)
    assert not broken, f"{page.name}: dangling references: {broken}"
