"""Presentation files, the builders behind them, and the preset registry."""

import hashlib

import pytest

from intforms.descent import SphereData
from intforms.matrixcalc import DerBasis
from intforms.parser import (
    ParseError,
    parse_element,
    parse_presentation_file,
    parse_scalar,
    parse_tensor,
)
from intforms.presets import (
    REGISTRY,
    get_preset,
    load_calc,
    resolve_target,
)

MINIMAL = """
[scalars]
parameters: q

[algebra]
generators: u, v
relation: v*u = q * u*v
"""


def test_registry_names_exactly_four():
    assert tuple(REGISTRY) == ("qplane", "sl2-3d", "podles-sphere", "matrix-m2")


def test_registry_kinds_and_loads():
    assert REGISTRY["qplane"].kind == "qplane"
    assert REGISTRY["sl2-3d"].kind == "sl2-3d"
    assert isinstance(REGISTRY["podles-sphere"].load(), SphereData)
    assert isinstance(REGISTRY["matrix-m2"].load(), DerBasis)


def test_get_preset_prefix_resolution():
    assert get_preset("sl2") is REGISTRY["sl2-3d"]
    assert get_preset("pod") is REGISTRY["podles-sphere"]
    assert get_preset("qplane") is REGISTRY["qplane"]
    with pytest.raises(KeyError):
        get_preset("nosuchpreset")
    with pytest.raises(KeyError):
        get_preset("")  # matches everything, so names nothing


def test_digest_is_sha256_of_name_and_source():
    # the builtin digest the presets use is hashlib's SHA-256
    for preset in REGISTRY.values():
        payload = f"{preset.name}\n{preset.source}".encode()
        assert preset.digest == hashlib.sha256(payload).hexdigest()
        assert preset.digest == preset.digest


def test_minimal_file_builds_a_presentation():
    bundle = load_calc(MINIMAL)
    pres = bundle.presentation
    assert bundle.tmd is None and bundle.spec is None and bundle.ladder is None
    q = pres.context.parameter("q")
    u, v = pres.gen("u"), pres.gen("v")
    assert v * u == (u * v).scale(q)


def test_qplane_bundle_matches_the_programmatic_build(qplane, qplane_tmd):
    bundle = REGISTRY["qplane"].load()
    pres = bundle.presentation
    words = pres.normal_words(3)
    assert [pres.word_str(w) for w in words] == [
        qplane.word_str(w) for w in qplane.normal_words(3)
    ]
    for word in words:
        ours = bundle.tmd.sigma.on_word(word)
        theirs = qplane_tmd.sigma.on_word(word)
        assert [
            [str(ours[i][j]) for j in range(2)] for i in range(2)
        ] == [[str(theirs[i][j]) for j in range(2)] for i in range(2)]


def test_sl2_bundle_carries_the_hopf_data():
    preset = REGISTRY["sl2-3d"]
    pres = preset.load().presentation
    hopf = pres.hopf
    assert hopf is not None
    q = pres.context.parameter("q")
    beta = pres.gen("beta")
    assert hopf["antipode"][pres.index("beta")] == -(q**-1) * beta
    assert hopf["counit"][pres.index("alpha")] == pres.context.one
    # every table entry is its [hopf] line's image, parsed in the loaded algebra
    parsers = {
        "coproduct": parse_tensor,
        "counit": lambda pres, text: parse_scalar(pres.context, text),
        "antipode": parse_element,
        "antipode inverse": parse_element,
    }
    lines = parse_presentation_file(preset.source)["hopf"]
    assert len(lines) == 16
    for _, text in lines:
        key, _, rest = text.partition(":")
        name, _, value = rest.partition("=")
        assert hopf[key][pres.index(name.strip())] == parsers[key](pres, value), text
    assert sum(len(table) for table in hopf.values()) == 16


def test_parse_error_carries_the_position():
    bad = MINIMAL.replace("relation: v*u = q * u*v", "relation: v*u = q *")
    with pytest.raises(ParseError) as err:
        load_calc(bad)
    assert err.value.line == 7


def test_unknown_section_rejected():
    with pytest.raises(ParseError) as err:
        parse_presentation_file("[nonsense]\nstuff: 1\n")
    assert err.value.line == 1


def test_directive_before_section_rejected():
    with pytest.raises(ParseError):
        parse_presentation_file("parameters: q\n")


def test_relation_left_side_must_be_a_bare_word():
    for lhs in ("2 * v*u", "v*u + u"):
        bad = MINIMAL.replace("v*u =", f"{lhs} =")
        with pytest.raises(ParseError):
            load_calc(bad)


def test_grading_must_be_integral():
    bad = MINIMAL + "\n[grading]\nu = q\n"
    with pytest.raises(ParseError):
        load_calc(bad)


def test_resolve_target_prefix_and_file(tmp_path):
    assert resolve_target("preset:sl2") is REGISTRY["sl2-3d"]
    path = tmp_path / "toy.calc"
    path.write_text(MINIMAL)
    preset = resolve_target(str(path))
    assert preset.name == "toy"
    assert preset.load().presentation.generators == ("u", "v")
    with pytest.raises(OSError):
        resolve_target(str(tmp_path / "missing.calc"))


def test_form_rule_sums_repeated_words():
    source = REGISTRY["qplane"].source
    old = "rule: dy.dx = -p*q^-1 * dx.dy"
    assert old in source
    summed = load_calc(source.replace(old, "rule: dy.dx = dx.dy + -p*q^-1 * dx.dy"))
    ctx = summed.presentation.context
    q, p = ctx.parameter("q"), ctx.parameter("p")
    assert summed.spec.reduce_word((1, 0)) == {(0, 1): 1 - p / q}
    cancelled = load_calc(source.replace(old, "rule: dy.dx = dx.dy + -1 * dx.dy"))
    assert cancelled.spec.reduce_word((1, 0)) == {}
