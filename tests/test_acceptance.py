"""Acceptance gate: ten go/no-go checks, one test (and one printed
pass line) per criterion.  Every comparison is exact; there are no
tolerances anywhere in this file."""

from fractions import Fraction
import random

import pytest

from conftest import (
    random_bridge_word,
    random_closed_word,
    random_knot_word,
)
from morsewidth.bracket import (
    LaurentPoly,
    jones_normalized,
    kauffman_bracket,
)
from morsewidth.catalog import catalog
from morsewidth.cli import main as cli_main
from morsewidth.errors import BudgetExceeded
from morsewidth.events import MorseWord, component_count
from morsewidth.invariants import (
    bridge_count,
    connected_sum,
    embedding_report,
    is_bridge_position,
    level_profile,
    otp_compare,
    rep_upper_bound,
    tangle_trunk,
    trunk,
    waist_upper_bound,
    width,
)
from morsewidth.moves import (
    LENGTH_DELTA,
    WRITHE_CHANGING,
    apply_move,
    enumerate_moves,
    inverse_move,
)
from morsewidth.search import (
    Objective,
    ObjectiveKind,
    SearchConfig,
    beam_search,
    exhaustive_min,
)
from morsewidth.textio import parse, serialize

CLOSED_ENTRIES = [
    "unknot",
    "trefoil_plat",
    "figure8_plat",
    "padded_trefoil",
    "cex4_gamma",
    "cex4_gamma_prime",
    "bt134",
    "bt_mcp",
    "stack_101010",
]


def _ok(n: int, msg: str) -> None:
    print(f"criterion {n:2d} PASS: {msg}")


def test_criterion_01_exact_values():
    gamma = embedding_report(catalog("cex4_gamma"))
    assert (gamma.width, gamma.trunk, gamma.height, gamma.bridge) == (242, 22, 1, 11)
    assert gamma.proportion == Fraction(1)

    prime_word = catalog("cex4_gamma_prime")
    prime = embedding_report(prime_word)
    prof = level_profile(prime_word)
    assert prime.width == 242
    assert sorted(prof.thick_widths, reverse=True) == [18, 14]
    assert list(prof.thin_widths) == [6]
    assert (prime.height, prime.bridge) == (2, 13)
    assert prime.proportion == Fraction(9, 26)

    bt_word = catalog("bt134")
    bt = embedding_report(bt_word)
    prof = level_profile(bt_word)
    assert bt.width == 134
    assert sorted(prof.thick_widths, reverse=True) == [10, 10, 10]
    assert sorted(prof.thin_widths) == [4, 4]
    assert (bt.height, bt.bridge) == (3, 11)
    assert bt.proportion == Fraction(5, 33)

    mcp = embedding_report(catalog("bt_mcp"))
    assert mcp.width == 136
    assert mcp.proportion == Fraction(3, 10)

    assert tangle_trunk(catalog("two_rational_sum")) == 6
    _ok(1, "catalog reports and tangle trunk match frozen integers/rationals")


def test_criterion_02_width_identity():
    rng = random.Random(2)
    for _ in range(10_000):
        word = random_closed_word(rng)
        prof = level_profile(word)
        thick, thin = prof.thick_widths, prof.thin_widths
        assert len(thick) == len(thin) + 1
        square = sum(t * t for t in thick) - sum(s * s for s in thin)
        assert square % 2 == 0
        assert width(word) == square // 2
    _ok(2, "width == (sum thick^2 - sum thin^2)/2 and alternation on 10^4 words")


def test_criterion_03_trunk_bound():
    rng = random.Random(3)
    equalities = 0
    for _ in range(10_000):
        word = random_closed_word(rng)
        assert trunk(word) <= 2 * bridge_count(word)
        if is_bridge_position(word):
            assert trunk(word) == 2 * bridge_count(word)
            equalities += 1
    for _ in range(2_000):
        word = random_bridge_word(rng)
        assert is_bridge_position(word)
        assert trunk(word) == 2 * bridge_count(word)
        equalities += 1
    assert equalities >= 2_000
    _ok(3, f"trunk <= 2*bridge everywhere; equality on {equalities} bridge positions")


def test_criterion_04_connected_sum_laws():
    def check(a: MorseWord, b: MorseWord) -> None:
        s = connected_sum(a, b)
        assert width(s) == width(a) + width(b) - 2
        assert bridge_count(s) == bridge_count(a) + bridge_count(b) - 1
        assert trunk(s) == max(trunk(a), trunk(b))
        assert component_count(s) == 1

    words = {name: catalog(name) for name in CLOSED_ENTRIES}
    for a in words.values():
        for b in words.values():
            check(a, b)
    rng = random.Random(4)
    for _ in range(1_000):
        check(random_bridge_word(rng), random_bridge_word(rng))
    _ok(4, f"sum laws on {len(words) ** 2} catalog pairs and 10^3 bridge pairs")


def test_criterion_05_move_soundness():
    rng = random.Random(5)
    pos_kink = LaurentPoly.term(-1, 3)
    neg_kink = LaurentPoly.term(-1, -3)
    checked = 0
    while checked < 1_000:
        word = random_closed_word(rng, max_events=18)
        if word.crossing_count > 10:  # criterion cap is 15; stay fast
            continue
        moves = enumerate_moves(word)
        move = moves[rng.randrange(len(moves))]
        after = apply_move(word, move)

        assert component_count(after) == component_count(word)
        assert len(after.events) - len(word.events) == LENGTH_DELTA[move.kind]
        assert apply_move(after, inverse_move(word, move)) == word

        before_poly = kauffman_bracket(word)
        after_poly = kauffman_bracket(after)
        if move.kind in WRITHE_CHANGING:
            assert after_poly in (before_poly * pos_kink, before_poly * neg_kink)
            if component_count(word) == 1:
                assert jones_normalized(after) == jones_normalized(word)
        else:
            assert after_poly == before_poly
        checked += 1
    _ok(5, "components, bracket, and inverses exact on 10^3 (word, move) pairs")


def test_criterion_06_search():
    objective = Objective(ObjectiveKind.GABAI_WIDTH)
    result = beam_search(catalog("padded_trefoil"), objective)
    assert result.best_report.width == 8
    assert result.best_report.otp_vector == (4,)

    rng = random.Random(6)
    agreed = 0
    while agreed < 100:
        word = random_knot_word(rng, max_events=8, max_crossings=3)
        if len(word.events) > 10:
            continue
        exhaustive = exhaustive_min(word, objective, radius=3)
        beam = beam_search(
            word,
            objective,
            SearchConfig(
                beam_width=max(64, exhaustive.visited + 1),
                max_steps=3,
                insertion_budget=0,
                random_seed=0,
            ),
        )
        assert beam.objective_value == exhaustive.objective_value
        agreed += 1
    _ok(6, "beam reaches width 8 / otp (4,); beam == exhaustive on 100 radius-3 balls")


def test_criterion_07_otp_order():
    assert otp_compare((8, 8), (10, 10, 10)) == -1

    rng = random.Random(7)

    def vec() -> tuple:
        return tuple(
            sorted((2 * rng.randint(1, 9) for _ in range(rng.randint(1, 5))), reverse=True)
        )

    for _ in range(2_000):
        a, b, c = vec(), vec(), vec()
        ab, ba = otp_compare(a, b), otp_compare(b, a)
        assert ab in (-1, 0, 1)
        assert ab == -ba
        assert otp_compare(a, a) == 0
        if ab <= 0 and otp_compare(b, c) <= 0:
            assert otp_compare(a, c) <= 0
        if ab == 0 and otp_compare(b, c) == 0:
            assert otp_compare(a, c) == 0
    _ok(7, "(8,8) < (10,10,10); total preorder laws on 2*10^3 fuzzed triples")


def test_criterion_08_bound_combinators():
    trefoil = catalog("trefoil_plat")
    assert rep_upper_bound(trefoil) == 2  # min(p, q) for the (2,3) torus knot
    assert rep_upper_bound(catalog("unknot")) == 1
    assert waist_upper_bound(trefoil) == 1
    _ok(8, "rep_upper trefoil 2, unknot 1; waist_upper trefoil 1")


def test_criterion_09_bracket_oracle():
    one = LaurentPoly.one()
    assert kauffman_bracket(catalog("unknot")) == one

    # hand-enumerated 8-state sum for b1 b2 x3- x3- x3- d2 d1: each state
    # chooses A or B at the three negative crossings (A = horizontal there);
    # loop counts read off the plat closure by hand
    states = [
        (("A", "A", "A"), 3),
        (("A", "A", "B"), 2),
        (("A", "B", "A"), 2),
        (("B", "A", "A"), 2),
        (("A", "B", "B"), 1),
        (("B", "A", "B"), 1),
        (("B", "B", "A"), 1),
        (("B", "B", "B"), 2),
    ]
    delta = LaurentPoly({2: -1, -2: -1})
    total = LaurentPoly.zero()
    for choices, loops in states:
        exponent = choices.count("A") - choices.count("B")
        total = total + LaurentPoly.term(1, exponent) * delta ** (loops - 1)

    trefoil = catalog("trefoil_plat")
    assert kauffman_bracket(trefoil) == total
    assert kauffman_bracket(trefoil) != one

    big = MorseWord(parse("b1 b2 " + "x3- " * 19 + "d2 d1").events)
    assert big.crossing_count == 19
    with pytest.raises(BudgetExceeded):
        kauffman_bracket(big)
    _ok(9, "unknot bracket 1; trefoil matches 8-state hand sum; budget at 19 crossings")


def test_criterion_10_parser_and_cli():
    names = CLOSED_ENTRIES + ["rational_tangle", "two_rational_sum", "torus_plat(3,4)"]
    for name in names:
        word = catalog(name)
        assert parse(serialize(word)) == word

    rng = random.Random(10)
    for _ in range(10_000):
        word = random_closed_word(rng)
        assert parse(serialize(word)) == word

    assert cli_main(["analyze", "b1 ??? d1"]) == 2  # syntax
    assert cli_main(["analyze", "b1 b1 d1"]) == 1  # validation
    assert cli_main(["bracket", "b1 b2 " + "x3- " * 19 + "d2 d1"]) == 3  # budget
    _ok(10, "round-trip on catalog + 10^4 words; CLI exit codes 2/1/3 fire")
