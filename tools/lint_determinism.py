#!/usr/bin/env python3
"""Determinism, independence and API-shape lint for the vrdf sources.

The fleet report's canonical serialization is bit-identical across
thread counts and across interrupt+resume (see src/sim/fleet.hpp), and
the certificate checker's value rests on sharing no code with the
analyzer (see src/analysis/checker.hpp).  Both properties are easy to
break with one innocuous-looking edit, so this linter rejects the
known footguns:

  R1  Unordered containers in canonical-serialization files.
      Iteration order of std::unordered_{map,set} is
      implementation-defined; a canonical byte stream must never be
      assembled from one.  Files on the canonical path may not mention
      unordered containers at all unless the line carries an explicit
      `// det-lint: ok(<reason>)` annotation.

  R2  Ambient nondeterminism anywhere in src/.
      std::rand / srand / std::random_device draw from process-global
      or OS entropy; time(...) seeding ties results to the wall clock.
      All randomness must come from util/seed_stream.hpp's splitmix64
      streams, derived statelessly from (base_seed, item index).

  R3  Float formatting in canonical-serialization files.
      to_double / setprecision / printf-style %f/%g/%e render
      locale- and platform-sensitive bytes; canonical text carries
      exact Rational strings only.  Wall-clock summaries (explicitly
      excluded from canonical_text) live outside these files.

  R4  Checker independence.
      src/analysis/checker.cpp must not include the analyzer it
      validates: analysis/pacing.hpp, analysis/buffer_sizing.hpp,
      analysis/sizing_core.hpp, analysis/incremental.hpp,
      analysis/period.hpp.  A checker that leans on the code under
      test certifies nothing.

  R5  One constraint entry point.
      Every analysis takes a ConstraintSet; a single constraint `c` is
      passed as `{c}`.  A `const ThroughputConstraint&` parameter in a
      src/ header is a second, single-constraint entry point that
      forwards to the set form, so it is rejected unless the line
      carries a `// det-lint: ok(<reason>)` annotation (a caller outside
      the library pins it, or the function takes one constraint by
      meaning, such as admitting one stream).

  R6  One rounding rule.
      Whether a pair's Eq (4) token count x rounds to ceil(x) or to
      floor(x) + 1 is decided by one function, detail::uses_ceiling in
      src/analysis/sizing_core.hpp, from the pair's tight_rounding
      flag and the RoundingMode.  Naming a RoundingMode enumerator
      (PaperLiteral, Ceil, PaperPublished) anywhere else in src/ starts
      a second copy of that rule, so it is rejected outside
      src/analysis/types.hpp (where the enum is declared),
      sizing_core.hpp and src/analysis/checker.cpp (whose independent
      derivation R4 protects).  The det-lint annotation does not exempt
      a line from R6.

Exit status: 0 clean, 1 violations (listed one per line), 2 usage.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

# Files whose output participates in a canonical (bit-stable) byte
# stream: the shared sweep engine, the fleet report/codec, the deployment
# frontier report, the resumable journal, the graph text format, the
# models it writes (actor names, their name index, rate sets), and the
# two-phase verify with the engine that holds its periodic offset fit
# (their results are the `lateness=`/`firings=` fields), the robustness
# margins (the faulted fleet injects them) and the analysis report that
# renders them (its bytes are pinned by golden files).  Every
# entry must exist: a stale entry would silently exempt the code it named
# once moved, so it fails the lint.
CANONICAL_FILES = (
    "src/sim/sweep.cpp",
    "src/sim/sweep.hpp",
    "src/sim/fleet.cpp",
    "src/sim/fleet.hpp",
    "src/sim/deployment_frontier.cpp",
    "src/sim/deployment_frontier.hpp",
    "src/sim/engine.hpp",
    "src/sim/verify.cpp",
    "src/sim/verify.hpp",
    "src/analysis/robustness.cpp",
    "src/analysis/robustness.hpp",
    "src/io/fleet_journal.cpp",
    "src/io/fleet_journal.hpp",
    "src/io/report.cpp",
    "src/io/report.hpp",
    "src/io/text_format.cpp",
    "src/io/text_format.hpp",
    "src/dataflow/vrdf_graph.cpp",
    "src/dataflow/vrdf_graph.hpp",
    "src/dataflow/rate_set.cpp",
    "src/dataflow/rate_set.hpp",
    "src/taskgraph/task_graph.cpp",
    "src/taskgraph/task_graph.hpp",
    "src/graph/ids.hpp",
)

ANNOTATION = re.compile(r"//\s*det-lint:\s*ok\([^)]+\)")

UNORDERED = re.compile(r"\bunordered_(?:map|set|multimap|multiset)\b")
AMBIENT = re.compile(
    r"std::rand\b|\bsrand\s*\(|std::random_device\b"
    r"|\btime\s*\(\s*(?:NULL|nullptr|0)\s*\)"
)
FLOAT_FORMAT = re.compile(
    r"\bto_double\s*\(|\bsetprecision\s*\(|%[-+ #0-9.*]*[fFeEgG]\b"
)

# A `const ThroughputConstraint&` parameter: the name (if any) is
# followed by `,` or `)` or the end of the line, which leaves out
# range-for variables and initialised locals.
SINGLE_CONSTRAINT_PARAM = re.compile(
    r"\bconst\s+(?:analysis::)?ThroughputConstraint\s*&\s*\w*\s*(?:[,)]|$)"
)

ROUNDING_ENUMERATOR = re.compile(
    r"\bRoundingMode::(?:PaperLiteral|Ceil|PaperPublished)\b"
)
ROUNDING_RULE_FILES = (
    "src/analysis/types.hpp",
    "src/analysis/sizing_core.hpp",
    "src/analysis/checker.cpp",
)

CHECKER_FILE = "src/analysis/checker.cpp"
ANALYZER_HEADERS = (
    "analysis/pacing.hpp",
    "analysis/buffer_sizing.hpp",
    "analysis/sizing_core.hpp",
    "analysis/incremental.hpp",
    "analysis/period.hpp",
)


def strip_line_comment(line: str) -> str:
    """Code part of a line (before //), so commented mentions don't trip."""
    pos = line.find("//")
    return line if pos < 0 else line[:pos]


def lint_file(root: Path, rel: str, violations: list[str]) -> None:
    path = root / rel
    if not path.is_file():
        return
    canonical = rel in CANONICAL_FILES
    for number, raw in enumerate(path.read_text().splitlines(), start=1):
        annotated = ANNOTATION.search(raw) is not None
        code = strip_line_comment(raw)

        if canonical and UNORDERED.search(code) and not annotated:
            violations.append(
                f"{rel}:{number}: R1 unordered container in a "
                f"canonical-serialization file (iteration order is not "
                f"deterministic); annotate `// det-lint: ok(<reason>)` "
                f"only if it provably never feeds the byte stream"
            )
        if AMBIENT.search(code) and not annotated:
            violations.append(
                f"{rel}:{number}: R2 ambient nondeterminism (rand/"
                f"random_device/wall-clock seed); derive streams via "
                f"util/seed_stream.hpp instead"
            )
        if canonical and FLOAT_FORMAT.search(code) and not annotated:
            violations.append(
                f"{rel}:{number}: R3 float formatting in a "
                f"canonical-serialization file; canonical text carries "
                f"exact Rational strings only"
            )
        if (
            rel.endswith(".hpp")
            and SINGLE_CONSTRAINT_PARAM.search(code.rstrip())
            and not annotated
        ):
            violations.append(
                f"{rel}:{number}: R5 single-constraint parameter; take "
                f"a `const ConstraintSet&` and let callers pass `{{c}}`"
            )
        if rel not in ROUNDING_RULE_FILES and ROUNDING_ENUMERATOR.search(code):
            violations.append(
                f"{rel}:{number}: R6 RoundingMode enumerator outside the "
                f"rounding rule; read the pair's tight_rounding through "
                f"detail::uses_ceiling instead"
            )
        if rel == CHECKER_FILE:
            for header in ANALYZER_HEADERS:
                if re.search(
                    rf'#\s*include\s*"{re.escape(header)}"', code
                ):
                    violations.append(
                        f"{rel}:{number}: R4 checker includes the "
                        f"analyzer it validates ({header}); the "
                        f"certificate checker must stay independent"
                    )


def main(argv: list[str]) -> int:
    if len(argv) > 2:
        print(__doc__, file=sys.stderr)
        return 2
    root = Path(argv[1]) if len(argv) == 2 else Path(__file__).parent.parent
    src = root / "src"
    if not src.is_dir():
        print(f"lint_determinism: no src/ under {root}", file=sys.stderr)
        return 2

    violations: list[str] = [
        f"{rel}: stale CANONICAL_FILES entry (no such file); rules R1 "
        f"and R3 would silently stop applying to the code it named"
        for rel in CANONICAL_FILES
        if not (root / rel).is_file()
    ]
    for path in sorted(src.rglob("*")):
        if path.suffix in (".cpp", ".hpp"):
            lint_file(root, str(path.relative_to(root)), violations)

    if violations:
        for violation in violations:
            print(violation)
        print(f"lint_determinism: {len(violations)} violation(s)")
        return 1
    print("lint_determinism: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
