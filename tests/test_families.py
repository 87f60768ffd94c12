"""Family constructors: orders, degrees, and their analysis results."""

import hashlib
import itertools
import math
import random

import pytest

from derangements import families, permgrp
from derangements.derange import analyze, derangement_subgroup, fingerprint, identify_quotient
from derangements.errors import ConstraintViolated, DegreeTooLarge, ToolkitError
from derangements.families import (
    FAMILY_ARITY,
    FamilyParams,
    affine_group,
    build_family,
    central_product_examples,
    cyclic_multiplier_group,
    dihedral_quotient_family,
    direct_product_action,
    frobenius_complement_example,
    pgammal_28,
    semilinear_example,
    wreath_product_action,
)
from derangements.gf import field, prime_power_decompose
from derangements.matgrp import (
    FFMatrix,
    MatrixGroup,
    binary_icosahedral_gl2,
    binary_tetrahedral_gl2,
    dihedral_gl2,
    eigenvalue_one_subgroup,
    general_linear_gl2,
    is_irreducible,
    quaternion_gl2,
    quotient_perm_group,
    scalar_matrix_group,
    special_linear_gl2,
)
from derangements.permgrp import (
    PermGroup,
    Permutation,
    alternating_group,
    count_fixed,
    cyclic_group,
    symmetric_group,
)
from derangements.suite import PAPER_SCENARIOS, run_scenario
from test_matgrp import index_to_vector
from test_properties import same_group


def test_affine_line_gf3_is_s3():
    g = affine_group(scalar_matrix_group(field(3, 1), 1))
    assert g.degree == 3 and g.order() == 6
    assert same_group(g, symmetric_group(3))


def test_affine_scalars_gf3_plane():
    g = affine_group(scalar_matrix_group(field(3, 1), 2))
    assert g.degree == 9 and g.order() == 18
    rep = analyze(g)
    assert rep.index == 2 and rep.quotient_name == "C2" and rep.frobenius
    assert rep.all_checks_pass()


def test_affine_full_gl23():
    g = affine_group(general_linear_gl2(field(3, 1)))
    assert g.degree == 9 and g.order() == 432
    rep = analyze(g)
    assert rep.index == 1
    assert rep.all_checks_pass()


def _affine_python(h):
    """The generators of affine_group(h): one field addition per
    translation and one apply_row per vector and matrix."""
    spec, d = h.spec, h.d
    vectors = [index_to_vector(spec, d, i) for i in range(spec.order**d)]
    index = {v: i for i, v in enumerate(vectors)}
    translations = [
        [index[v[:i] + (spec.add_e(v[i], 1),) + v[i + 1:]] for v in vectors] for i in range(d)
    ]
    maps = [[index[m.apply_row(v)] for v in vectors] for m in h.generators]
    return PermGroup(len(vectors), [Permutation(x) for x in translations + maps]).generators


def test_affine_group_matches_apply_row_oracle():
    """Translations and matrix maps from the digit-vector path equal the
    per-vector oracle over prime and prime-power fields, d <= 3."""
    rng = random.Random(9)
    for (p, f), d in itertools.product(
        [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2), (5, 2), (3, 3)], (1, 2, 3)
    ):
        spec = field(p, f)
        if spec.order**d > 1000:
            continue
        while True:
            m = FFMatrix(spec, [[rng.randrange(spec.order) for _ in range(d)] for _ in range(d)])
            if m.det():
                break
        h = MatrixGroup(spec, d, [m, FFMatrix.scalar(spec, d, spec.primitive_element())])
        assert affine_group(h).generators == _affine_python(h)


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9, 16])
def test_affine_gl2_point_stabilizer_tally_is_closed_form(q):
    """AGL(2,q) = affine_group(GL(2,q)) has order q^2 |GL(2,q)|, and its
    point stabilizer G_0 acts as GL(2,q) on GF(q)^2: g fixes the q^k vectors
    of its eigenvalue-1 space of dimension k.  Of GL(2,q)'s elements, q^3 -
    2q have eigenvalue 1, the identity among them, so the tally is
    {1: |GL| - (q^3 - 2q), q: q^3 - 2q - 1, q^2: 1}."""
    gl = (q * q - 1) * (q * q - q)
    group = affine_group(general_linear_gl2(field(*prime_power_decompose(q))))
    assert group.degree == q * q and group.order() == q * q * gl
    expected = {1: gl - (q**3 - 2 * q), q: q**3 - 2 * q - 1, q * q: 1}
    assert group.stabilizer().fixed_point_tally() == expected


def test_affine_degree_cap():
    with pytest.raises(DegreeTooLarge):
        affine_group(scalar_matrix_group(field(7, 1), 6))


@pytest.mark.parametrize(
    "q,order", [(3, 144), (4, 480), (5, 1200), (7, 4704), (8, 8064), (9, 12960)]
)
def test_semilinear_orders(q, order):
    """The maps permute the codes of GF(q^2): its q^2 elements are the points."""
    g = semilinear_example(q)
    p, f = prime_power_decompose(q)
    assert g.degree == field(p, 2 * f).order == q * q
    assert g.order() == order


def test_semilinear_q3_structure():
    g = semilinear_example(3)
    rep = analyze(g)
    assert rep.index == 2
    assert not rep.frobenius
    assert g.is_primitive()
    assert rep.all_checks_pass()
    # everything outside the derangement subgroup fixes exactly one point
    d = derangement_subgroup(g)
    for el in g.iter_elements():
        if el not in d:
            assert count_fixed(el.images) == 1


def test_pgammal28():
    g = pgammal_28()
    assert g.degree == 28 and g.order() == 1512
    rep = analyze(g)
    assert rep.d_order == 504 and rep.index == 3
    assert rep.quotient_name == "C3"
    assert rep.all_checks_pass()


def test_pgammal28_point_stabilizer_is_sylow3_normalizer():
    """A pair stabilizer is N_G(P) for a Sylow 3-subgroup P, so the action
    on pairs is the coset action on that normalizer.  N_G(P) is found here
    by enumerating G."""
    g = pgammal_28()
    stab = g.stabilizer()
    assert stab.order() == 54
    sylow = PermGroup(28, [h for h in stab.iter_elements() if 27 % h.order() == 0])
    assert sylow.order() == 27
    norm = PermGroup(
        28,
        [x for x in g.iter_elements()
         if all(x.conjugator()(s) in sylow for s in sylow.generators)],
    )
    assert same_group(norm, stab)


def test_wreath_products():
    square = wreath_product_action(symmetric_group(2), 2)
    assert square.degree == 4 and square.order() == 8
    assert not square.is_primitive()
    nine = wreath_product_action(cyclic_group(3), 2)
    assert nine.degree == 9 and nine.order() == 18
    big = wreath_product_action(symmetric_group(3), 2)
    assert big.degree == 9 and big.order() == 72
    assert analyze(big).index == 1  # both coordinates carry derangements


def test_direct_product_is_generated_by_derangements():
    prod = direct_product_action(symmetric_group(3), symmetric_group(3))
    assert prod.degree == 9 and prod.order() == 36
    assert derangement_subgroup(prod).order() == 36
    mixed = direct_product_action(cyclic_group(2), symmetric_group(3))
    assert derangement_subgroup(mixed).order() == mixed.order()


def _image_digest(group):
    return hashlib.sha256(repr([p.images for p in group.generators]).encode()).hexdigest()


def test_product_action_generator_images_are_pinned():
    """The generator images of the product actions, point for point.  The
    corpus records do not change when points are relabelled, so only these
    digests catch a relabelled product domain."""
    wreaths = {
        (symmetric_group(3), 2): "320331a99980245dc5e93bbe13334bf4acf65a4f48457cb568a3f48714d7fc8f",
        (cyclic_group(2), 3): "27c17302474055193f65bd051518ededffdb6ecbfe1aa32fcb2dd33e9e6bbe88",
        (symmetric_group(4), 1): "fbfe3d17af968fac3623290dbfb8bfe1bac361803a8145758f45d9e2f7fd0aac",
        (cyclic_group(5), 2): "47f140467eff5dba0ab68fd4b2b4128a051b267231c176495adc91471627a30a",
    }
    for (h, k), digest in wreaths.items():
        assert _image_digest(wreath_product_action(h, k)) == digest, (h, k)
    directs = {
        (cyclic_group(2), symmetric_group(3)): "75f58693e9da83437aa68cac90e5e1ab0644dcb0942b6865c09abab8bd8e49d8",
        (symmetric_group(3), symmetric_group(3)): "340763d5c3b2557cba0044b991e08070ed5d43f5248456173c98d59f4705f807",
        (alternating_group(4), cyclic_group(2)): "908e03a564b3a45cc73d0a77d2b0751be8fff70eac4d7bfbaa37467862d06243",
    }
    for (a, b), digest in directs.items():
        assert _image_digest(direct_product_action(a, b)) == digest, (a, b)


def test_frobenius_complement_example_c5_c4():
    h = cyclic_multiplier_group(5, 2)
    assert h.order() == 4
    g = frobenius_complement_example(5, h, 3)
    assert g.degree == 125 and g.order() == 1500
    rep = analyze(g)
    assert rep.d_order == 375 and rep.index == 4
    assert rep.quotient_name == "C4"
    assert not rep.frobenius
    assert rep.all_checks_pass()
    # the coordinate rotation is one of the generators and lies inside
    d = derangement_subgroup(g)
    rotation = g.generators[-1]
    assert rotation in d
    for t in g.generators[:3]:
        assert t in d


def test_frobenius_complement_example_c7_c3():
    g = frobenius_complement_example(7, cyclic_multiplier_group(7, 2), 2)
    assert g.degree == 49 and g.order() == 294
    rep = analyze(g)
    assert rep.index == 3 and rep.quotient_name == "C3"


def test_frobenius_complement_example_refuses_bad_parameters():
    """h must act on the m points, and a degree m^q past the degree cap is
    refused before any tuple is built."""
    with pytest.raises(ConstraintViolated, match="h acts on 7 points, expected 5"):
        frobenius_complement_example(5, cyclic_multiplier_group(7, 2), 3)
    with pytest.raises(ConstraintViolated, match="degree 1000000 exceeds 8192"):
        frobenius_complement_example(100, cyclic_multiplier_group(100, 3), 3)


def test_frobenius_complement_example_builds_no_wreath_product(monkeypatch):
    """The shifts and rotation come from the wreath generators alone, with
    no wreath product group (and its chain of degree m^q) built; the
    generator images are unchanged."""

    def no_wreath(*args):
        raise AssertionError("built the wreath product")

    monkeypatch.setattr(families, "wreath_product_action", no_wreath)
    pinned = {
        (5, 2, 3): "137748d9ceff3a2b6a71da5ac39ed63cbb9b310d70658371807ccec077d5e3f1",
        (7, 2, 2): "0dcb23d450b2ec5c6df16fbbdee010413d20f3222654865400c4dede7beaeec8",
        (13, 3, 2): "8d916169ca769c772bbd923a53312af7b95fd66c814786747991035fd12f7bb0",
    }
    for (m, a, q), digest in pinned.items():
        g = frobenius_complement_example(m, cyclic_multiplier_group(m, a), q)
        assert _image_digest(g) == digest


def test_frobenius_complement_rejections():
    with pytest.raises(ConstraintViolated, match="gcd"):
        frobenius_complement_example(5, cyclic_multiplier_group(5, 2), 2)
    with pytest.raises(ConstraintViolated, match="not prime"):
        frobenius_complement_example(5, cyclic_multiplier_group(5, 2), 4)
    with pytest.raises(ConstraintViolated, match="zero point"):
        # x -> 3x mod 8 fixes both 0 and 4
        frobenius_complement_example(8, cyclic_multiplier_group(8, 3), 3)
    from derangements.permgrp import Permutation

    not_linear = PermGroup(5, [Permutation((0, 2, 1, 4, 3))])
    with pytest.raises(ConstraintViolated, match="automorphism"):
        frobenius_complement_example(5, not_linear, 3)


def test_dihedral_quotient_family_q7():
    h = dihedral_quotient_family(7)
    assert h.spec.order == 7 and h.d == 4
    assert h.order() == 96
    r = eigenvalue_one_subgroup(h)
    assert h.order() // r.order() == 8
    assert identify_quotient(quotient_perm_group(h)) == "D8"


def test_dihedral_quotient_family_q11_order():
    h = dihedral_quotient_family(11)
    assert h.order() == 240


@pytest.mark.parametrize("q", [7, 11, 19, 23, 27, 31])
def test_dihedral_quotient_family_order_and_irreducibility(q):
    """The stack closes to 2(q^2 - 1) elements, the carried order, and H is
    irreducible on GF(q)^4.  Both factors hold -I, or central_product would
    have refused them."""
    h = dihedral_quotient_family(q)
    assert len(h.digit_stack()) == h.order() == 2 * (q * q - 1)
    assert is_irreducible(h)


def test_dihedral_quotient_family_rejects():
    with pytest.raises(ConstraintViolated):
        dihedral_quotient_family(5)
    with pytest.raises(ConstraintViolated):
        dihedral_quotient_family(3)


def test_central_product_example_orders():
    """Each example's stack closes to its carried order, and it is
    irreducible on GF(q)^4."""
    for name, order in [("klein", 48), ("a4", 528), ("a5", 6960)]:
        h = central_product_examples(name)
        assert len(h.digit_stack()) == h.order() == order
        assert is_irreducible(h)
    with pytest.raises(ConstraintViolated):
        central_product_examples("dicyclic")


def test_affine_klein_order():
    g = affine_group(central_product_examples("klein"))
    assert g.degree == 625 and g.order() == 30000
    assert g.is_transitive()


def test_build_family_dispatch():
    agl = build_family(FamilyParams("agl1", (5,)))
    assert agl.order() == 20 and agl.degree == 5
    mat = build_family(FamilyParams("central-a4"))
    assert mat.order() == 528
    wreath = build_family(FamilyParams("wreath-sym", (2, 2)))
    assert wreath.order() == 8
    fam = build_family(FamilyParams("dihedral-family", (7,)))
    assert fam.order() == 96
    fc = build_family(FamilyParams("frobenius-complement", (5, 2, 3)))
    assert fc.order() == 1500


# one small member of each family, for checking its carried order
SMALL_MEMBERS = {
    "symmetric": (5,),
    "alternating": (6,),
    "cyclic": (6,),
    "dihedral": (5,),
    "agl1": (8,),
    "affine-scalars": (3, 2),
    "affine-gl2": (4,),
    "affine-klein": (),
    "semilinear": (3,),
    "pgammal28": (),
    "wreath-sym": (3, 2),
    "wreath-cyclic": (3, 3),
    "frobenius-complement": (5, 2, 3),
    "central-klein": (),
    "central-a4": (),
    "central-a5": (),
    "dihedral-family": (7,),
}
OTHER_CONSTRUCTORS = {
    "pgl28": families._pgl_2_8,
    "direct-product": lambda: direct_product_action(symmetric_group(3), cyclic_group(4)),
    "sl2-7": lambda: special_linear_gl2(field(7, 1)),
    "quaternion-5": lambda: quaternion_gl2(field(5, 1)),
    "binary-tetrahedral-7": lambda: binary_tetrahedral_gl2(field(7, 1)),
    "binary-icosahedral-19": lambda: binary_icosahedral_gl2(field(19, 1)),
    "dihedral-gl2-split": lambda: dihedral_gl2(field(7, 1), 6),
    "dihedral-gl2-nonsplit": lambda: dihedral_gl2(field(3, 2), 5),
    "scalars-9-3": lambda: scalar_matrix_group(field(3, 2), 3),
    **{f"gl2-{q}": lambda q=q: general_linear_gl2(field(*prime_power_decompose(q))) for q in (2, 3, 4, 5, 7, 8, 9)},
}


def test_small_members_cover_every_family():
    assert set(SMALL_MEMBERS) == set(FAMILY_ARITY)


@pytest.mark.parametrize("name", [*SMALL_MEMBERS, *OTHER_CONSTRUCTORS])
def test_carried_order_matches_the_chain_or_stack(name):
    """Each constructor carries its order from a formula; the chain (product
    of its orbit lengths) or the digit stack (its rows) gives the same."""
    if name in SMALL_MEMBERS:
        group = build_family(FamilyParams(name, SMALL_MEMBERS[name]))
    else:
        group = OTHER_CONSTRUCTORS[name]()
    if isinstance(group, PermGroup):
        assert math.prod(len(lvl.orbit) for lvl in group._chain()) == group.order()
    else:
        assert len(group.digit_stack()) == group.order()


def test_build_family_rejects():
    with pytest.raises(ConstraintViolated, match="unknown family"):
        build_family(FamilyParams("mystery", ()))
    with pytest.raises(ConstraintViolated, match="parameter") as exc:
        build_family(FamilyParams("semilinear", (3, 4)))
    assert str(exc.value) == "family 'semilinear' takes 1 parameter(s), got 2"


def test_family_parameters_0_to_4_build_or_raise_typed_errors():
    """Every family over every parameter tuple from 0..4 builds a member or
    raises a ToolkitError; no parameter reaches an untyped error."""
    for name, arity in FAMILY_ARITY.items():
        for values in itertools.product(range(5), repeat=arity):
            try:
                build_family(FamilyParams(name, values))
            except ToolkitError:
                pass


def test_build_family_calls_rebound_constructors(monkeypatch):
    """Builders look constructors up when called, so a wrapper bound over
    a module global (as the benchmark tracer binds) sees the call."""
    calls = []
    original = families.affine_group
    monkeypatch.setattr(families, "affine_group", lambda h: calls.append(h) or original(h))
    assert build_family(FamilyParams("agl1", (5,))).order() == 20
    assert len(calls) == 1


def test_every_build_is_fresh_so_a_second_scenario_run_repeats_the_first(monkeypatch):
    """A family call builds a new group, holding no chain or element list
    from an earlier call, so a scenario's second run makes the same closure
    and chain-growth calls as its first."""
    for name, values in [("semilinear", (3,)), ("pgammal28", ()), ("central-a4", ()), ("dihedral-family", (7,))]:
        params = FamilyParams(name, values)
        assert build_family(params) is not build_family(params)
    calls = []

    def logged(name, fn):
        return lambda *args, **kwargs: calls.append(name) or fn(*args, **kwargs)

    monkeypatch.setattr(permgrp, "closure", logged("closure", permgrp.closure))
    monkeypatch.setattr(permgrp, "_grow", logged("_grow", permgrp._grow))
    for scenario in PAPER_SCENARIOS:
        runs = []
        for _ in range(2):
            calls.clear()
            assert run_scenario(scenario).passed
            runs.append(list(calls))
        assert runs[0] == runs[1], scenario.id
