"""The text layer: one KEY=VALUE grammar for rule specs, configuration-file
headers and CLI fields, and every spec and file caexp writes reads back."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caexp import configio, engine
from caexp.config import Configuration
from caexp.errors import UsageError, parse_fields
from caexp.lattice import Z, Z2, free, reduce_word
from caexp.presets import parse_rule
from caexp.rules import LinearRule


def test_fields_split_on_keys_so_values_keep_spaces():
    assert parse_fields(" m=3  coeffs=1:1,a b:1 lattice=free:2 ",
                        ("m", "coeffs"), ("lattice",)) == {
        "m": "3", "coeffs": "1:1,a b:1", "lattice": "free:2"}
    assert parse_fields("z= sprime=", ("z", "sprime")) == {"z": "", "sprime": ""}
    assert parse_fields("lattice=z q=2", ("lattice", "q"), ("quiescent",)) == {
        "lattice": "z", "q": "2"}


def _signed(n):
    return [g for i in range(1, n + 1) for g in (i, -i)]


def _sites(lat, letters):
    if lat == Z:
        return st.integers(-10 ** 6, 10 ** 6)
    if lat == Z2:
        return st.tuples(st.integers(-50, 50), st.integers(-50, 50))
    return st.lists(st.sampled_from(_signed(lat.n)),
                    max_size=letters).map(reduce_word)


def _fixed_sites(lat):
    """The identity, generator 5 (a on F_1, d on F_4), its inverse and a
    word of several letters."""
    if lat == Z:
        return [0, 5, -5, 12]
    if lat == Z2:
        return [(0, 0), (5, 0), (-5, 0), (3, -2)]
    g = min(5, lat.n)
    return [(), (g,), (-g,), reduce_word((1, g, g))]


@st.composite
def _configs(draw):
    lat = draw(st.sampled_from([Z, Z2, free(1), free(4), free(5), free(26)]))
    q = draw(st.integers(2, 7))
    sites = [*_fixed_sites(lat), *draw(st.lists(_sites(lat, 6), max_size=8))]
    return Configuration(lat, q, {s: draw(st.integers(1, q - 1))
                                  for s in dict.fromkeys(sites)})


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_configs())
def test_configuration_text_round_trips(c):
    assert configio.loads(configio.dumps(c)) == c


@st.composite
def _linear_rules(draw):
    lat = draw(st.sampled_from([Z, Z2, *(free(n) for n in range(2, 7))]))
    m = draw(st.integers(2, 11))
    coeffs = draw(st.dictionaries(_sites(lat, 3), st.integers(1, m - 1),
                                  min_size=1, max_size=6))
    return LinearRule(lat, m, coeffs)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_linear_rules())
def test_linear_rule_describe_reads_back(rule):
    again = parse_rule(rule.describe())
    assert (again.lattice, again.m, again.coeffs) == (
        rule.lattice, rule.m, rule.coeffs)


def test_two_letter_and_generator_5_words_read_back():
    for rule in (LinearRule(free(2), 2, {(1, 2): 1, (): 1}),
                 LinearRule(free(5), 2, {(5,): 1, (): 1})):
        again = parse_rule(rule.describe())
        assert (again.lattice, again.coeffs) == (rule.lattice, rule.coeffs)
    assert free(2).format_site((1, 2)) == "a b"
    assert LinearRule(free(5), 2, {(5,): 1, (): 1}).describe() == (
        "linear lattice=free:5 m=2 coeffs=1:1,e:1")


def test_a_repeated_coefficient_site_is_refused():
    with pytest.raises(UsageError, match="repeated coefficient site"):
        parse_rule("linear m=3 lattice=free:2 coeffs=a:1,a A a:2")


@pytest.mark.parametrize("spec", [
    "f2", "f3", "psi", "upsilon", "vn2", "tri2", "mult:3,2", "mult:2,4",
    "lambda:3", "layered:1", "layered:2", "linear m=5 coeffs=-2:3,0:1,1:4",
    "linear lattice=z2 m=3 coeffs=0,0:1;1,0:2",
    "linear lattice=free:2 m=2 coeffs=1:1,a b:1"])
def test_every_preset_describe_reads_back(spec):
    # the rule: line of simulate is a spec --rule accepts, for the same rule
    rule = parse_rule(spec)
    again = parse_rule(rule.describe())
    lat = rule.lattice
    rng = random.Random(4)
    ball = lat.origin_ball(2 if lat.kind.startswith("free") else 5)
    c = Configuration(lat, rule.q, {s: rng.randrange(1, rule.q)
                                    for s in rng.sample(ball, 6)})
    assert (again.lattice, again.q) == (lat, rule.q)
    assert engine.iterate(again, c, 3) == engine.iterate(rule, c, 3)
