import io as stdio

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coocsim import build_model, initialize, io as io_module
from coocsim.io import (
    COOC_RULE,
    PALETTE,
    WALK_RULE,
    EdgeList,
    ParseError,
    build_relation_model,
    format_matrix,
    format_rules,
    parse_edge_list,
    parse_matrix,
    parse_rules,
    parse_sizes,
    read_report_csv,
    render_snapshot,
    write_report_csv,
)
from coocsim.metrics import NeighborhoodReport
from coocsim.model import InteractionMatrixEntry, InteractionRule

from reference import make_state


# ---------------------------------------------------------------------------
# rules parser

def test_parse_rules_golden(rules_text):
    rules = parse_rules(rules_text)
    assert rules == [
        InteractionRule("walk", "random-walk", "deactivate-none"),
        InteractionRule("cooc", "follow-path", "deactivate-source"),
    ]


def test_parse_rules_empty_input():
    assert parse_rules("") == []
    assert parse_rules("\n; just a comment\n\n") == []


def test_parse_rules_unknown_action_names_the_token():
    text = "interaction fly\nactions fly deactivate-none\nend\n"
    with pytest.raises(ParseError, match="'fly'") as exc:
        parse_rules(text)
    assert exc.value.line_no == 2


def test_parse_rules_unterminated_block():
    with pytest.raises(ParseError, match="unterminated"):
        parse_rules("interaction walk\nactions random-walk deactivate-none\n")


def test_parse_rules_unknown_action_comes_before_a_malformed_end():
    """A block's lines are checked in order, so the actions line's unknown
    movement is named before the malformed ``end`` line after it."""
    text = "interaction fly\nactions fly deactivate-none\nend now\n"
    with pytest.raises(ParseError, match="unknown movement action 'fly'") as exc:
        parse_rules(text)
    assert exc.value.line_no == 2


def test_parse_rules_second_block_cut_after_its_interaction_line():
    text = "interaction walk\nactions random-walk deactivate-none\nend\n\ninteraction cut\n"
    with pytest.raises(ParseError, match="unterminated interaction block") as exc:
        parse_rules(text)
    assert exc.value.line_no == 5


def test_parse_rules_misplaced_lines():
    with pytest.raises(ParseError) as exc:
        parse_rules("actions random-walk deactivate-none\n")
    assert exc.value.line_no == 1
    with pytest.raises(ParseError):
        parse_rules("interaction a\nend\n")


# ---------------------------------------------------------------------------
# matrix parser

def test_parse_matrix_golden_toy(matrix_toy_text):
    entries = parse_matrix(matrix_toy_text)
    assert entries == [
        InteractionMatrixEntry("particles", "walk", 0, 0),
        InteractionMatrixEntry("walkers", "walk", 0, 0),
        InteractionMatrixEntry("particles", "cooc", 1, 1, "walkers", 2.0),
    ]


def test_parse_matrix_golden_small_set(matrix_small_text):
    entries = parse_matrix(matrix_small_text)
    assert len(entries) == 26
    walks = [e for e in entries if e.target_family is None]
    coocs = [e for e in entries if e.target_family is not None]
    assert len(walks) == 13
    assert len(coocs) == 13
    assert {e.source_family for e in walks} == {
        "particles", "walkers", "ab_initio_calculations", "abductor_digiti_minimi",
        "abductor_pollicis_brevis", "aberrant_activation", "aberrant_methylation",
        "aberrant_regulation", "abnormal_magnetic", "abnormal_representation",
        "absolute_expression", "abundance_proteins", "abundant_transcripts",
    }
    assert entries[13] == InteractionMatrixEntry("particles", "cooc", 1, 1, "walkers", 2.0)
    assert entries[25] == InteractionMatrixEntry(
        "abundant_transcripts", "cooc", 1, 1, "abductor_digiti_minimi", 2.0,
    )
    assert all(e.distance == 2.0 and e.cardinality == 1 for e in coocs)


def test_parse_matrix_arity_errors():
    with pytest.raises(ParseError) as exc:
        parse_matrix("particles cooc 1 1 walkers\n")
    assert exc.value.line_no == 1
    with pytest.raises(ParseError):
        parse_matrix("particles\n")
    with pytest.raises(ParseError):
        parse_matrix("a b 0 0 c 2 extra\n")


def test_parse_matrix_numeric_errors_carry_line_numbers():
    with pytest.raises(ParseError) as exc:
        parse_matrix("ok walk 0 0\nbad walk x 0\n")
    assert exc.value.line_no == 2
    with pytest.raises(ParseError, match="cardinality"):
        parse_matrix("bad walk 0 x\n")
    with pytest.raises(ParseError, match="distance"):
        parse_matrix("bad cooc 1 1 t x\n")
    # With two bad fields, the first one is named, on the line it is on.
    with pytest.raises(ParseError, match="^line 2: priority must be an integer, got 'x'$") as exc:
        parse_matrix("ok walk 0 0\nbad cooc x 1 t y\n")
    assert exc.value.line_no == 2


def test_parse_matrix_preserves_order_and_skips_comments():
    text = "; header\n\nb walk 0 0\na walk 0 0\n"
    entries = parse_matrix(text)
    assert [e.source_family for e in entries] == ["b", "a"]


NAME = st.from_regex(r"[a-z][a-z0-9_]{0,11}", fullmatch=True)
DISTANCE = st.one_of(st.integers(1, 9), st.floats(0.0, exclude_min=True, allow_infinity=False))


@given(st.lists(
    st.tuples(NAME, NAME, st.integers(0, 9), st.integers(0, 3),
              st.one_of(st.none(), st.tuples(NAME, DISTANCE))),
    max_size=12,
))
@settings(max_examples=100)
def test_matrix_round_trip(rows):
    entries = []
    for source, rule, priority, cardinality, tail in rows:
        if tail is None:
            entries.append(InteractionMatrixEntry(source, rule, priority, cardinality))
        else:
            target, dist = tail
            entries.append(InteractionMatrixEntry(source, rule, priority, cardinality,
                                                  target, float(dist)))
    assert parse_matrix(format_matrix(entries)) == entries


def test_format_matrix_writes_integral_distances_short_and_others_exactly():
    entries = [InteractionMatrixEntry("a", "cooc", 1, 1, "b", d) for d in (2.0, 2.2360679, 1.5)]
    assert format_matrix(entries).splitlines()[1:] == [
        "a cooc 1 1 b 2", "a cooc 1 1 b 2.2360679", "a cooc 1 1 b 1.5"]


def test_rules_round_trip(rules_text):
    rules = parse_rules(rules_text)
    assert parse_rules(format_rules(rules)) == rules


@given(st.integers(0, 10**6))
@settings(max_examples=60)
def test_mutated_matrix_lines_always_rejected_with_line_numbers(seed):
    rng = np.random.default_rng(seed)
    valid = ["particles walk 0 0", "particles cooc 1 1 walkers 2"]
    line = valid[rng.integers(0, 2)].split()
    mutation = rng.integers(0, 2)
    if mutation == 0:
        line = line[:-1]            # field deletion: arity 3 or 5
    else:
        idx = [2, 3] if len(line) == 4 else [2, 3, 5]
        line[idx[rng.integers(0, len(idx))]] = "zz"   # non-numeric slot
    text = "particles walk 0 0\n" + " ".join(line) + "\n"
    with pytest.raises(ParseError) as exc:
        parse_matrix(text)
    assert exc.value.line_no == 2


# ---------------------------------------------------------------------------
# edge lists

def test_edge_list_parsing_and_dedup():
    text = "# comment\na b\nb a\nc d\na a\n"
    edges = parse_edge_list(text)
    assert edges.edges == (("a", "b"), ("c", "d"))
    assert edges.names == ("a", "b", "c", "d")


def test_edge_list_arity_error():
    with pytest.raises(ParseError) as exc:
        parse_edge_list("a b c\n")
    assert exc.value.line_no == 1


# ---------------------------------------------------------------------------
# sizes files

def test_sizes_skip_blank_and_comment_lines():
    text = "# demo split\n\nwalkers 200\n   \n  # indented comment\nparticles 800\n"
    assert parse_sizes(text, ("walkers", "particles", "idle")) == {"walkers": 200, "particles": 800}
    assert parse_sizes("# nothing\n", ("walkers",)) == {}


@pytest.mark.parametrize("text, message", [
    ("walkers 200\nparticles\n", "line 2: expected 'name size', got 1 fields"),
    ("# x\nwalkers 200 3\n", "line 2: expected 'name size', got 3 fields"),
    ("walkers 2.5\n", "line 1: size must be an integer, got '2.5'"),
    ("walkers 200\n\nparticle 800\n", "line 3: population 'particle' is not in the matrix"),
    ("walkers 200\nparticles 800\nwalkers 300\n", "line 3: population 'walkers' is given twice"),
], ids=["too_few_fields", "too_many_fields", "non_integer_size", "unknown_name", "repeated_name"])
def test_sizes_refusals_name_their_line(text, message):
    with pytest.raises(ParseError) as exc:
        parse_sizes(text, ("walkers", "particles"))
    assert str(exc.value) == message
    assert exc.value.line_no == int(message.split()[1].rstrip(":"))


# ---------------------------------------------------------------------------
# relation models

def test_restricted_star():
    edges = parse_edge_list("t a\nt b\n")
    rel = build_relation_model(edges, "t", "restricted")
    assert rel.populations == ("t", "a", "b")
    follows = [e for e in rel.matrix if e.target_family is not None]
    walks = [e for e in rel.matrix if e.target_family is None]
    assert len(follows) == 2
    assert len(walks) == 3
    assert rel.relation_count == 2
    assert rel.rules == (WALK_RULE, COOC_RULE)


def test_restricted_drops_second_hop():
    edges = parse_edge_list("t a\na b\n")
    rel = build_relation_model(edges, "t", "restricted")
    assert rel.populations == ("t", "a")
    assert rel.relation_count == 1
    assert all(e.target_family in (None, "t", "a") for e in rel.matrix)


def test_extended_keeps_second_hop():
    edges = parse_edge_list("t a\na b\n")
    rel = build_relation_model(edges, "t", "extended")
    assert rel.populations == ("t", "a", "b")
    assert rel.relation_count == 2


def test_extended_keeps_edges_among_neighbours():
    edges = parse_edge_list("t a\nt b\na b\nb c\nc d\n")
    rel = build_relation_model(edges, "t", "extended")
    # two hops: t, a, b, c; edge c-d falls outside
    assert rel.populations == ("t", "a", "b", "c")
    assert rel.relation_count == 4


def test_direction_is_lexicographically_smaller_source():
    edges = parse_edge_list("zeta alpha\n")
    rel = build_relation_model(edges, "zeta", "restricted")
    follow = [e for e in rel.matrix if e.target_family is not None][0]
    assert follow.source_family == "alpha"
    assert follow.target_family == "zeta"


def test_symmetric_mode_emits_both_directions():
    edges = parse_edge_list("t a\n")
    rel = build_relation_model(edges, "t", "restricted", symmetric=True)
    pairs = {(e.source_family, e.target_family)
             for e in rel.matrix if e.target_family is not None}
    assert pairs == {("a", "t"), ("t", "a")}


def test_unknown_target_rejected():
    edges = parse_edge_list("a b\n")
    with pytest.raises(ValueError, match="zzz"):
        build_relation_model(edges, "zzz")


@given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=1, max_size=40))
@settings(max_examples=80)
def test_restricted_counts_follow_target_degree(raw):
    pairs = [(f"n{a}", f"n{b}") for a, b in raw if a != b]
    if not pairs:
        return
    edges = parse_edge_list("\n".join(f"{a} {b}" for a, b in pairs))
    target = edges.names[0]
    rel = build_relation_model(edges, target, "restricted")
    degree = sum(target in edge for edge in edges.edges)
    assert len(rel.populations) == degree + 1
    assert rel.relation_count == degree


class _CountedEdges(tuple):
    """Edges that count the passes made over them."""

    passes = 0

    def __iter__(self):
        type(self).passes += 1
        return super().__iter__()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_extended_keeps_the_brute_force_two_hop_set(seed, monkeypatch):
    """A hub plus random noise edges: ``extended`` keeps every name within two
    hops of the target, and every edge among them, in a fixed number of
    passes over the edges rather than one per first-hop name."""
    rng = np.random.default_rng(seed)
    names = [f"n{i:03d}" for i in range(120)]
    pairs = [("hub", names[i]) for i in rng.choice(120, 15, replace=False)]
    pairs += [(names[a], names[b]) for a, b in rng.integers(0, 120, (150, 2))]
    edges = parse_edge_list("\n".join(f"{a} {b}" for a, b in pairs))
    monkeypatch.setattr(_CountedEdges, "passes", 0)
    rel = build_relation_model(EdgeList(_CountedEdges(edges.edges)), "hub", "extended")
    assert _CountedEdges.passes <= 4  # names, first hop, second hop, kept edges
    adjacent = lambda name: {b if a == name else a for a, b in edges.edges if name in (a, b)}
    reach = {"hub"} | adjacent("hub")
    for name in adjacent("hub"):
        reach |= adjacent(name)
    assert rel.populations == ("hub", *sorted(reach - {"hub"}))
    linked = {(e.source_family, e.target_family) for e in rel.matrix if e.target_family}
    assert linked == {e for e in edges.edges if e[0] in reach and e[1] in reach}
    assert len(reach) < len(edges.names)  # the noise reaches past two hops


def test_generated_model_is_runnable():
    edges = parse_edge_list("t a\nt b\na b\n")
    rel = build_relation_model(edges, "t", "extended")
    model = build_model(rel.rules, rel.matrix, side=15, sizes=5)
    state = initialize(model, 3)
    assert state.n_agents == 15


# ---------------------------------------------------------------------------
# report CSV

def _report(counts, average, tick=0):
    return NeighborhoodReport("walkers", 2.0, tick, counts, average)


def test_report_csv_busiest_first():
    counts = {"particles": 55, "ab_initio_calculations": 45, "rest": 10}
    sink = stdio.BytesIO()
    n = write_report_csv(_report(counts, sum(counts.values()) / 3), sink)
    data = sink.getvalue()
    assert n == len(data)
    lines = data.decode().splitlines()
    assert lines[0] == "population,count"
    assert lines[1] == "particles,55"
    assert lines[2] == "ab_initio_calculations,45"
    assert lines[-1] == "_average,36.7"
    assert b"\r" not in data


def test_report_csv_empty_counts():
    sink = stdio.BytesIO()
    write_report_csv(_report({}, 0.0), sink)
    assert sink.getvalue() == b"population,count\n_average,0.0\n"


def test_report_csv_ties_in_name_order():
    sink = stdio.BytesIO()
    write_report_csv(_report({"b": 5, "a": 5, "c": 2}, 4.0), sink)
    lines = sink.getvalue().decode().splitlines()
    assert lines[1:4] == ["a,5", "b,5", "c,2"]


def test_report_csv_round_trips_through_reader():
    sink = stdio.BytesIO()
    write_report_csv(_report({"a": 3, "b": 1}, 2.0), sink)
    counts, average = read_report_csv(sink.getvalue().decode())
    assert counts == {"a": 3, "b": 1}
    assert average == 2.0


def test_report_reader_returns_the_mean_the_average_line_rounds():
    """A report's ``_average`` line rounds the counts' mean to one place: the
    reader returns that mean exactly. A line the counts do not average to,
    as in a table cut from a longer report, is returned as written."""
    sink = stdio.BytesIO()
    write_report_csv(_report({"a": 5, "b": 1, "c": 1}, 7 / 3), sink)
    assert sink.getvalue().decode().endswith("_average,2.3\n")
    assert read_report_csv(sink.getvalue().decode()) == ({"a": 5, "b": 1, "c": 1}, 7 / 3)
    assert read_report_csv("population,count\na,5\nb,1\n_average,2.0\n")[1] == 2.0
    assert read_report_csv("population,count\n_average,0.0\n") == ({}, 0.0)


def test_report_reader_rejects_bad_input():
    with pytest.raises(ParseError):
        read_report_csv("wrong,header\n")
    with pytest.raises(ParseError):
        read_report_csv("population,count\na,notanumber\n_average,1.0\n")
    with pytest.raises(ParseError, match="_average"):
        read_report_csv("population,count\na,1\n")
    with pytest.raises(ParseError, match="after"):
        read_report_csv("population,count\n_average,1.0\na,1\n")


def test_report_reader_rejects_a_population_given_twice():
    with pytest.raises(ParseError, match="line 4: population 'a' is given twice"):
        read_report_csv("population,count\na,1\nb,9\na,30\n_average,5.0\n")


# ---------------------------------------------------------------------------
# snapshots

def _patches(data: bytes, side: int) -> np.ndarray:
    """The (side, side, 3) patch colours of a snapshot, row = y and column =
    x, after checking that every patch is one uniform 8x8 pixel block."""
    header = f"P6\n{8 * side} {8 * side}\n255\n".encode("ascii")
    assert data.startswith(header) and len(data) == len(header) + 3 * (8 * side) ** 2
    blocks = np.frombuffer(data[len(header):], dtype=np.uint8).reshape(side, 8, side, 8, 3)
    assert (blocks == blocks[:, :1, :, :1]).all()
    return blocks[:, 0, :, 0]


def _expected_patches(state) -> np.ndarray:
    """Patch colours drawn in id order, so the last agent on a patch wins."""
    patches = np.zeros((state.side, state.side, 3), dtype=np.uint8)
    for (x, y), population in zip(state.positions, state.population_index):
        patches[y, x] = PALETTE[population % len(PALETTE)]
    return patches


def test_snapshot_empty_world_is_black():
    empty = make_state(3, ("a",), [])
    sink = stdio.BytesIO()
    n = render_snapshot(empty, sink)
    assert not _patches(sink.getvalue(), 3).any()
    assert n == len(sink.getvalue()) == len(b"P6\n24 24\n255\n") + 24 * 24 * 3


def test_snapshot_single_agent_single_block():
    state = make_state(3, ("a",), [("a", (0, 0), True)])
    sink = stdio.BytesIO()
    render_snapshot(state, sink)
    patches = _patches(sink.getvalue(), 3)
    assert [(r, c) for r in range(3) for c in range(3) if patches[r, c].any()] == [(0, 0)]
    assert tuple(patches[0, 0]) == PALETTE[0]


def test_snapshot_scale_blocks():
    state = make_state(3, ("a",), [("a", (1, 2), True)])
    sink = stdio.BytesIO()
    render_snapshot(state, sink)
    data = sink.getvalue()
    assert data.startswith(b"P6\n24 24\n255\n")
    img = np.frombuffer(data[len(b"P6\n24 24\n255\n"):], dtype=np.uint8).reshape(24, 24, 3)
    lit = {(r, c) for r in range(24) for c in range(24) if img[r, c].any()}
    assert lit == {(r, c) for r in range(16, 24) for c in range(8, 16)}   # row = y, col = x


def test_snapshot_bytes_deterministic():
    rows = [("a", (1, 1), True), ("b", (2, 0), False)]
    state = make_state(4, ("a", "b"), rows)
    a, b = stdio.BytesIO(), stdio.BytesIO()
    render_snapshot(state, a)
    render_snapshot(state, b)
    assert a.getvalue() == b.getvalue()


def test_snapshot_last_agent_in_id_order_wins():
    state = make_state(4, ("a", "b"), [("a", (1, 1), True), ("b", (1, 1), True)])
    sink = stdio.BytesIO()
    render_snapshot(state, sink)
    assert tuple(_patches(sink.getvalue(), 4)[1, 1]) == PALETTE[1]


def test_snapshot_highest_id_wins_among_interleaved_populations():
    rows = [("b", (2, 1), True), ("a", (2, 1), True), ("b", (2, 1), False),
            ("a", (2, 1), True), ("b", (0, 3), True), ("b", (0, 3), True),
            ("a", (0, 3), True)]
    state = make_state(4, ("a", "b"), rows)
    sink = stdio.BytesIO()
    render_snapshot(state, sink)
    patches = _patches(sink.getvalue(), 4)
    assert tuple(patches[1, 2]) == PALETTE[0]   # agent 3 of "a" is the last on (2, 1)
    assert tuple(patches[3, 0]) == PALETTE[0]   # agent 6 of "a" is the last on (0, 3)
    lit = {(r, c) for r in range(4) for c in range(4) if patches[r, c].any()}
    assert lit == {(1, 2), (3, 0)}


def test_snapshot_streams_rows_equal_to_the_scaled_image(monkeypatch):
    # 64 KB blocks, smaller than the default, so side 61 still spans many.
    monkeypatch.setattr(io_module, "_WRITE_BYTES", 1 << 16)
    rng = np.random.default_rng(23)
    names = ("a", "b", "c", "d")
    rows = [(names[rng.integers(0, 4)], tuple(rng.integers(0, 6, 2)), bool(rng.random() < 0.7))
            for _ in range(30)]
    state = make_state(6, names, rows)
    assert len({pos for _, pos, _ in rows}) < len(rows)  # some patches are shared

    class RecordingSink:
        def __init__(self):
            self.writes = []

        def write(self, data):
            self.writes.append(bytes(data))
            return len(data)

    small = RecordingSink()
    written = render_snapshot(state, small)
    assert np.array_equal(_patches(b"".join(small.writes), 6), _expected_patches(state))
    assert written == sum(len(w) for w in small.writes)
    assert len(small.writes) > 1

    # Side 61 is 714 KB of pixels, 5 patch rows (58.5 KB) per write block:
    # several full blocks and a partial last one, each from the same reused buffer.
    pops, xy = rng.integers(0, 4, 3000), rng.integers(0, 61, (3000, 2))
    big = make_state(61, names, [(names[p], tuple(at), True) for p, at in zip(pops, xy)])
    sink = RecordingSink()
    written = render_snapshot(big, sink)
    assert np.array_equal(_patches(b"".join(sink.writes), 61), _expected_patches(big))
    assert written == sum(len(w) for w in sink.writes)
    patch_row = 8 * 61 * 8 * 3  # bytes of one patch row of the image
    block, *middle, tail = (len(w) for w in sink.writes[1:])
    assert len(middle) > 2 and set(middle) == {block} and 0 < tail < block
    assert block % patch_row == 0 and tail % patch_row == 0
