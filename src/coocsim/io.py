"""Text formats: rule and matrix files, edge lists, CSV reports, snapshots.

Rule files are blocks of three lines::

    interaction <name>
    actions <movement-action> <deactivation-action>
    end

Matrix files hold one entry per line, four mandatory fields plus an
optional target/distance pair::

    source-family interaction-name priority cardinality [target-family distance]

Edge lists hold one unordered ``name name`` pair per line, sizes files one
``name size`` pair. Lines starting with ``;`` (rules, matrix) or ``#`` (edge
lists, sizes) are comments; blank lines are ignored everywhere. Reports are
written as ``population,count`` CSV with a trailing ``_average`` row,
snapshots as binary P6 pixmaps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import BinaryIO, Iterable, Sequence

import numpy as np

from .metrics import NeighborhoodReport
from .model import (
    DEACTIVATE_NONE,
    DEACTIVATE_SOURCE,
    DEACTIVATION_ACTIONS,
    FOLLOW_PATH,
    MOVEMENT_ACTIONS,
    RANDOM_WALK,
    InteractionMatrixEntry,
    InteractionRule,
    population_name_error,
)
from .world import WorldState

MATRIX_HEADER = "; source-family interaction-name priority cardinality <target-family distance>"

#: Rule vocabulary emitted by the relation-set generator.
WALK_RULE = InteractionRule("walk", RANDOM_WALK, DEACTIVATE_NONE)
COOC_RULE = InteractionRule("cooc", FOLLOW_PATH, DEACTIVATE_SOURCE)

#: Population colours for snapshots, assigned by population index (wrapping).
PALETTE: tuple[tuple[int, int, int], ...] = (
    (230, 25, 75), (0, 130, 200), (60, 180, 75), (255, 225, 25),
    (245, 130, 48), (145, 30, 180), (70, 240, 240), (240, 50, 230),
    (210, 245, 60), (250, 190, 212), (0, 128, 128), (220, 190, 255),
    (170, 110, 40), (255, 250, 200), (128, 0, 0), (170, 255, 195),
)


class ParseError(ValueError):
    """A rejected input line; ``line_no`` is 1-based."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _typed(convert, token: str, line_no: int, must: str):
    """``convert(token)``, or a :class:`ParseError` saying what the field must be."""
    try:
        return convert(token)
    except ValueError:
        raise ParseError(line_no, f"{must}, got {token!r}") from None


def _content_lines(text: str, comment: str) -> Iterable[tuple[int, list[str]]]:
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith(comment):
            continue
        yield line_no, stripped.split()


#: The three lines of a rule block, each as its shape: its first token, its
#: token count and the fields that must name a known action.
_RULE_BLOCK = ("interaction <name>", "actions <movement> <deactivation>", "end")
_ACTIONS = {"<movement>": MOVEMENT_ACTIONS, "<deactivation>": DEACTIVATION_ACTIONS}


def parse_rules(text: str) -> list[InteractionRule]:
    lines = list(_content_lines(text, ";"))
    rules: list[InteractionRule] = []
    for at in range(0, len(lines), len(_RULE_BLOCK)):
        block = lines[at:at + len(_RULE_BLOCK)]
        for (line_no, tokens), shape in zip(block, _RULE_BLOCK):
            fields = shape.split()
            if tokens[0] != fields[0] or len(tokens) != len(fields):
                raise ParseError(line_no, f"expected {shape!r}, got {' '.join(tokens)!r}")
            for token, field in zip(tokens, fields):
                if field in _ACTIONS and token not in _ACTIONS[field]:
                    raise ParseError(line_no, f"unknown {field[1:-1]} action {token!r}")
        if len(block) < len(_RULE_BLOCK):
            raise ParseError(block[-1][0], "unterminated interaction block")
        (_, (_, name)), (_, (_, movement, deactivation)), _ = block
        rules.append(InteractionRule(name, movement, deactivation))
    return rules


def parse_matrix(text: str) -> list[InteractionMatrixEntry]:
    entries: list[InteractionMatrixEntry] = []
    for line_no, tokens in _content_lines(text, ";"):
        if len(tokens) not in (4, 6):
            raise ParseError(line_no, f"expected 4 or 6 fields, got {len(tokens)}")
        target = distance = None
        try:
            priority, cardinality = int(tokens[2]), int(tokens[3])
            if len(tokens) == 6:
                target, distance = tokens[4], float(tokens[5])
        except ValueError:  # field by field, in field order, so the first bad field is named
            _typed(int, tokens[2], line_no, "priority must be an integer")
            _typed(int, tokens[3], line_no, "cardinality must be an integer")
            _typed(float, tokens[5], line_no, "distance must be a number")
        entries.append(InteractionMatrixEntry(tokens[0], tokens[1], priority, cardinality,
                                              target, distance))
    return entries


def parse_sizes(text: str, names) -> dict[str, int]:
    """Sizes by population, each of ``names`` at most once."""
    sizes: dict[str, int] = {}
    for line_no, tokens in _content_lines(text, "#"):
        if len(tokens) != 2:
            raise ParseError(line_no, f"expected 'name size', got {len(tokens)} fields")
        name, size = tokens
        if name not in names:
            raise ParseError(line_no, f"population {name!r} is not in the matrix")
        if name in sizes:
            raise ParseError(line_no, f"population {name!r} is given twice")
        sizes[name] = _typed(int, size, line_no, "size must be an integer")
    return sizes


def format_rules(rules: Sequence[InteractionRule]) -> str:
    blocks = [
        f"interaction {r.name}\nactions {r.movement_action} {r.deactivation_action}\nend\n"
        for r in rules
    ]
    return "\n".join(blocks)


def format_matrix(entries: Sequence[InteractionMatrixEntry]) -> str:
    lines = [MATRIX_HEADER]
    for e in entries:
        line = f"{e.source_family} {e.interaction_name} {e.priority} {e.cardinality}"
        if e.target_family is not None:  # 6 digits where they read back exactly, else all
            d = f"{e.distance:g}"
            line += f" {e.target_family} {d if float(d) == e.distance else repr(float(e.distance))}"
        lines.append(line)
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class EdgeList:
    """Deduplicated unordered co-occurrence pairs, self-loops dropped."""

    edges: tuple[tuple[str, str], ...]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(sorted({name for edge in self.edges for name in edge}))


def parse_edge_list(text: str) -> EdgeList:
    edges: list[tuple[str, str]] = []
    seen: set[tuple[str, str]] = set()
    for line_no, tokens in _content_lines(text, "#"):
        if len(tokens) != 2:
            raise ParseError(line_no, f"expected two names, got {len(tokens)} fields")
        a, b = tokens
        if a == b:
            continue  # self-relations carry no aggregation signal
        pair = (a, b) if a < b else (b, a)
        if pair not in seen:
            seen.add(pair)
            edges.append(pair)
    return EdgeList(tuple(edges))


@dataclass(frozen=True)
class RelationModel:
    """Populations plus generated rules and matrix for one relation context."""

    populations: tuple[str, ...]
    rules: tuple[InteractionRule, ...]
    matrix: tuple[InteractionMatrixEntry, ...]

    @property
    def relation_count(self) -> int:
        return sum(1 for e in self.matrix if e.target_family is not None)


def build_relation_model(
    edges: EdgeList,
    target: str,
    kind: str = "restricted",
    distance: float = 2.0,
    symmetric: bool = False,
) -> RelationModel:
    """Build the population and relation context around a target name.

    ``restricted`` keeps only the target and its direct neighbours, with one
    follow-path entry per incident edge. ``extended`` widens to two hops and
    keeps every edge among the retained names. Every population also gets a
    plain walk entry. Each edge yields one directed entry with the
    lexicographically smaller name as source, or both directions when
    ``symmetric`` is set. A kept name that cannot name a population (see
    :func:`~coocsim.model.population_name_error`) is refused with ``ValueError``.
    """
    if kind not in ("restricted", "extended"):
        raise ValueError(f"kind must be 'restricted' or 'extended', got {kind!r}")
    if not 0 < distance < float("inf"):
        raise ValueError(f"distance must be a finite positive number, got {distance}")
    names = set(edges.names)
    if target not in names:
        raise ValueError(f"target {target!r} not present in the edge list")
    first_hop = {b if a == target else a for a, b in edges.edges if target in (a, b)}
    kept = {target} | first_hop
    if kind == "restricted":
        kept_edges = [e for e in edges.edges if target in e]
    else:
        # Both ends of every edge that touches the first hop, in one pass.
        kept.update(name for edge in edges.edges if not first_hop.isdisjoint(edge) for name in edge)
        kept_edges = [e for e in edges.edges if e[0] in kept and e[1] in kept]

    populations = (target, *sorted(kept - {target}))
    for name in populations:
        if problem := population_name_error(name):
            raise ValueError(problem)
    matrix = [
        InteractionMatrixEntry(name, WALK_RULE.name, 0, 0) for name in populations
    ]
    for a, b in sorted(kept_edges):
        matrix.append(InteractionMatrixEntry(a, COOC_RULE.name, 1, 1, b, distance))
        if symmetric:
            matrix.append(InteractionMatrixEntry(b, COOC_RULE.name, 1, 1, a, distance))
    return RelationModel(populations, (WALK_RULE, COOC_RULE), tuple(matrix))


def write_report_csv(report: NeighborhoodReport, sink: BinaryIO) -> int:
    """Emit ``population,count`` rows, busiest first, then the average.

    Ties break by name; the final row is ``_average`` with one decimal
    place. LF endings and UTF-8, byte-identical for equal reports.
    """
    rows = sorted(report.counts.items(), key=lambda kv: (-kv[1], kv[0]))
    text = "population,count\n"
    text += "".join(f"{name},{count}\n" for name, count in rows)
    text += f"_average,{report.global_average:.1f}\n"
    data = text.encode("utf-8")
    sink.write(data)
    return len(data)


def read_report_csv(text: str) -> tuple[dict[str, int], float]:
    """Parse a report back into counts and its average: the counts' mean when the
    ``_average`` line is that mean as written, rounded, else the line's value."""
    lines = text.splitlines()
    if not lines or lines[0] != "population,count":
        raise ParseError(1, "expected header 'population,count'")
    counts: dict[str, int] = {}
    average = None
    for line_no, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        if average is not None:
            raise ParseError(line_no, "rows after the _average line")
        name, _, value = line.rpartition(",")
        if not name:
            raise ParseError(line_no, f"expected 'name,count', got {line!r}")
        if name == "_average":
            average = _typed(float, value, line_no, "average must be a number")
        elif name in counts:
            raise ParseError(line_no, f"population {name!r} is given twice")
        else:
            counts[name] = _typed(int, value, line_no, "count must be an integer")
    if average is None:
        raise ParseError(len(lines), "missing _average row")
    mean = sum(counts.values()) / len(counts) if counts else 0.0
    return counts, mean if f"{mean:.1f}" == f"{average:.1f}" else average


#: Pixels per side of a patch's block in a snapshot, and per colour (black
#: last) the block's pixel row: the colour ``_SCALE`` times.
_SCALE = 8
_COLOUR_ROWS = np.tile(np.array(PALETTE + ((0, 0, 0),), dtype=np.uint8), _SCALE)
_COLOUR_ROWS.setflags(write=False)

#: Bytes per ``sink.write`` of :func:`render_snapshot`, in whole patch rows (one at least).
#: Fresh-process medians per frame to a new file (2-core host), 64 / 128 / 256 / 512 KB: side
#: 301 8.3 / 7.6 / 7.4 / 6.7 ms (256 and 512 KB tied at 6.2 ms in 30 more pairs), side 101
#: 1.34 / 1.12 / 1.24 / 1.52 ms. 256 KB is the best at both sides together.
_WRITE_BYTES = 1 << 18


def render_snapshot(state: WorldState, sink: BinaryIO) -> int:
    """Stream the world as a binary P6 pixmap, one 8x8 pixel block per patch.

    A patch shows the colour of the last agent (in id order) occupying it;
    frozen agents keep their patch. Empty patches are black. Output bytes
    are a pure function of the state, written in blocks of whole patch rows
    of at most ``_WRITE_BYTES`` (or one patch row, if larger) from one
    buffer reused across writes, so the sink must consume the bytes before
    ``write`` returns (files and ``BytesIO`` do).
    """
    side, scale = state.side, _SCALE
    # The highest agent id per patch, stated explicitly: numpy leaves the
    # winner among duplicate indices of a plain assignment unspecified.
    last = np.full(side * side, -1, dtype=np.int64)
    np.maximum.at(last, state.positions[:, 1] * side + state.positions[:, 0],
                  np.arange(state.n_agents))
    colour = np.append(state.population_index % len(PALETTE), len(PALETTE))  # no agent (-1): black
    patch_rows = colour[last].reshape(side, side)
    header = f"P6\n{side * scale} {side * scale}\n255\n".encode("ascii")
    sink.write(header)
    row_bytes = side * scale * 3
    per_block = min(side, max(1, _WRITE_BYTES // (scale * row_bytes)))  # patch rows
    block = np.empty((per_block, scale, side, scale * 3), dtype=np.uint8)
    image_rows = block.reshape(per_block, scale, row_bytes)  # the same memory
    for lo in range(0, side, per_block):
        n = min(per_block, side - lo)
        # The first image row of each patch row, then its copies. No index
        # clips; numpy fills ``out`` in place only when the mode is not "raise".
        np.take(_COLOUR_ROWS, patch_rows[lo:lo + n], axis=0, out=block[:n, 0], mode="clip")
        image_rows[:n, 1:] = image_rows[:n, :1]
        sink.write(image_rows[:n].reshape(-1))
    return len(header) + side * scale * row_bytes
