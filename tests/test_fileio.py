"""Round-trip and error-reporting tests for the text group formats."""

import pytest

from derangements.errors import ParseError
from derangements.fileio import (
    dump_group,
    dump_matrix_group,
    dump_perm_group,
    load_group,
    load_matrix_group,
    load_perm_group,
)
from derangements.gf import field
from derangements.matgrp import FFMatrix, MatrixGroup, general_linear_gl2
from derangements.permgrp import PermGroup, symmetric_group


def test_perm_round_trip():
    g = symmetric_group(4)
    text = dump_perm_group(g)
    back = load_perm_group(text)
    assert back.degree == 4
    assert [p.images for p in back.generators] == [p.images for p in g.generators]
    # emitting again gives the same bytes
    assert dump_perm_group(back) == text


def test_perm_dump_layout():
    g = PermGroup(3, [(1, 2, 0)])
    assert dump_perm_group(g) == "permgroup 3 1\n1 2 0\n"
    assert dump_perm_group(g, comment="rotation") == (
        "# rotation\npermgroup 3 1\n1 2 0\n"
    )


def test_perm_parse_skips_comments_and_blanks():
    text = "# sample\n\npermgroup 3 2\n# gen 1\n1 0 2\n\n1 2 0\n"
    g = load_perm_group(text)
    assert g.order() == 6


def test_perm_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as exc:
        load_perm_group("permgrp 3 1\n1 2 0\n")
    assert exc.value.line_no == 1

    with pytest.raises(ParseError) as exc:
        load_perm_group("# intro\npermgroup 3 one\n1 2 0\n")
    assert exc.value.line_no == 2

    with pytest.raises(ParseError) as exc:
        load_perm_group("permgroup 3 1\n1 2\n")
    assert exc.value.line_no == 2

    with pytest.raises(ParseError) as exc:
        load_perm_group("permgroup 3 1\n1 1 0\n")
    assert exc.value.line_no == 2

    with pytest.raises(ParseError) as exc:
        load_perm_group("permgroup 3 2\n1 2 0\n")
    assert exc.value.line_no == 2

    with pytest.raises(ParseError) as exc:
        load_perm_group("permgroup 3 1\n1 2 0\n0 1 2\n")
    assert exc.value.line_no == 3

    with pytest.raises(ParseError) as exc:
        load_perm_group("")
    assert exc.value.line_no == 1


@pytest.mark.parametrize(
    "text, message",
    [
        ("permgroup 3\n", "header must be 'permgroup n ngens'"),
        ("permgroup 0 0\n", "need n >= 1"),
        ("matgroup 5 1 2 -1\n", "need d >= 1"),
    ],
)
def test_headers_out_of_range_are_refused_on_line_1(text, message):
    with pytest.raises(ParseError, match=message) as exc:
        load_group(text)
    assert exc.value.line_no == 1


def test_mat_round_trip():
    h = general_linear_gl2(field(3, 1))
    text = dump_matrix_group(h)
    back = load_matrix_group(text)
    assert back.spec is h.spec
    assert back.d == 2
    assert [m.rows for m in back.generators] == [m.rows for m in h.generators]
    assert dump_matrix_group(back) == text


def test_mat_dump_layout():
    gf5 = field(5, 1)
    h = MatrixGroup(gf5, 2, [FFMatrix(gf5, [[0, 1], [4, 0]])])
    assert dump_matrix_group(h) == "matgroup 5 1 2 1\n0 1\n4 0\n"


def test_mat_extension_field_entries_are_encoded():
    gf9 = field(3, 2)
    two_plus_x = gf9.add_e(2, 3)  # t has code 0 + 1*3
    h = MatrixGroup(gf9, 1, [FFMatrix(gf9, [[two_plus_x]])])
    text = dump_matrix_group(h)
    assert text == f"matgroup 3 2 1 1\n{two_plus_x}\n"
    back = load_matrix_group(text)
    assert back.generators[0].rows[0][0] == two_plus_x


def test_mat_parse_errors():
    with pytest.raises(ParseError) as exc:
        load_matrix_group("matgroup 4 1 2 1\n1 0\n0 1\n")
    assert exc.value.line_no == 1  # 4 is not prime

    with pytest.raises(ParseError) as exc:
        load_matrix_group("matgroup 5 1 2 1\n0 1\n")
    assert exc.value.line_no == 2  # ran out of rows

    with pytest.raises(ParseError) as exc:
        load_matrix_group("matgroup 5 1 2 1\n0 9\n1 0\n")
    assert exc.value.line_no == 2  # entry out of range

    with pytest.raises(ParseError) as exc:
        load_matrix_group("matgroup 5 1 2 1\n1 0\n2 0\n")
    assert exc.value.line_no == 2  # singular generator

    with pytest.raises(ParseError) as exc:
        load_matrix_group("matgroup 5 1 2 1\n1 0\n0 1\n3 3\n")
    assert exc.value.line_no == 4  # trailing rows


PERM_HEAD = "# two generators of S_3\npermgroup 3 2\n\n1 2 0\n# the second\n"
MAT_HEAD = "matgroup 5 1 2 2\n0 1\n4 0\n# the second\n"


@pytest.mark.parametrize(
    "load, text, line_no",
    [
        (load_perm_group, PERM_HEAD + "1 x 0\n", 6),  # bad token
        (load_perm_group, PERM_HEAD + "1 0\n", 6),  # short row
        (load_perm_group, PERM_HEAD + "1 1 0\n", 6),  # not a permutation
        (load_perm_group, PERM_HEAD, 4),  # missing row: the last line
        (load_perm_group, PERM_HEAD + "1 0 2\n\n0 1 2\n", 8),  # trailing row
        (load_matrix_group, MAT_HEAD + "1 2\n3 y\n", 6),  # bad token
        (load_matrix_group, MAT_HEAD + "1 2\n3\n", 6),  # short row
        (load_matrix_group, MAT_HEAD + "1 2\n3 5\n", 6),  # entry out of range
        (load_matrix_group, MAT_HEAD + "1 2\n2 4\n", 5),  # singular: its first row
        (load_matrix_group, MAT_HEAD + "1 2\n", 5),  # missing row: the last line
        (load_matrix_group, MAT_HEAD + "1 2\n3 4\n# extra\n1 1\n", 8),  # trailing row
    ],
)
def test_parse_errors_in_the_second_generator(load, text, line_no):
    """Every body error in the second generator, past comments and blank
    lines, is reported on its own line, through both loaders."""
    for loader in (load, load_group):
        with pytest.raises(ParseError) as exc:
            loader(text)
        assert exc.value.line_no == line_no


def test_second_generator_heads_load_when_completed():
    """The files of the table above, with a sound second generator."""
    assert load_perm_group(PERM_HEAD + "1 0 2\n").order() == 6
    assert len(load_matrix_group(MAT_HEAD + "1 2\n3 4\n").generators) == 2


@pytest.mark.parametrize("d", [10**9, 20_000])
def test_mat_header_past_spin_cap(d):
    """The spin's work bound is checked on the header, before any matrix of
    side d is allocated."""
    with pytest.raises(ParseError) as exc:
        load_matrix_group(f"matgroup 2 1 {d} 0\n")
    assert exc.value.line_no == 1
    assert f"GF(2)^{d}" in str(exc.value)


def test_mat_header_within_spin_cap():
    """GL(4,59), central-a5's space, spins 4*(59^4 - 1)/58 = 835 680
    points, under the cap; GF(59)^5 is past it."""
    assert load_matrix_group("matgroup 59 1 4 0\n").d == 4
    with pytest.raises(ParseError):
        load_matrix_group("matgroup 59 1 5 0\n")


def test_load_group_dispatch():
    g = load_group("permgroup 2 1\n1 0\n")
    assert isinstance(g, PermGroup)
    h = load_group("matgroup 5 1 1 1\n2\n")
    assert isinstance(h, MatrixGroup)
    with pytest.raises(ParseError):
        load_group("widget 1 2\n")
    # each single-format loader refuses the other format's header on its line
    for load, text in (
        (load_perm_group, "# m\nmatgroup 5 1 1 1\n2\n"),
        (load_matrix_group, "# p\npermgroup 2 1\n1 0\n"),
    ):
        with pytest.raises(ParseError, match="header") as exc:
            load(text)
        assert exc.value.line_no == 2
    with pytest.raises(TypeError):
        dump_group(42)
