import re

import numpy as np
import pytest

from latticenet.errors import ParseError, PlanError
from latticenet.geometry import MAX_COORD, LatticeKind
from latticenet.netspec import (
    ConvSpec,
    FMPSpec,
    NetworkSpec,
    OutputSpec,
    PoolSpec,
    centered_box,
    count_ops,
    format_report,
    geometric_activity,
    parse,
    plan,
    plan_partial,
    render,
)
from oracles import compact_walk_parse

SQ = LatticeKind.SQUARE
TET = LatticeKind.TETRAHEDRAL


def cifar_arch() -> str:
    parts = []
    for i in range(1, 7):
        parts += [f"{32*i}C2", f"{32*i}C2"]
        if i < 6:
            parts.append("MP3/2")
    return "-".join(parts) + "-output"


# ---------------------------------------------------------------------------
# parsing


def test_parse_tetrahedral_example():
    spec = parse("32C2-MP3/2-output", TET, 1)
    assert spec.layers == (ConvSpec(32, 2, 1), PoolSpec(3, 2), OutputSpec())
    from latticenet.geometry import filter_volume
    assert filter_volume(TET, 2) == 4
    assert filter_volume(TET, 3) == 10


def test_parse_spacetime_arch():
    spec = parse("32C3-MP3/2-64C2-MP3/2-128C2-MP3/2-256C2-MP3/2-512C3-output", TET, 1)
    assert len(spec.layers) == 10  # 9 work layers + output
    assert spec.layers[0] == ConvSpec(32, 3, 1)
    assert spec.layers[-2] == ConvSpec(512, 3, 1)


def test_parse_pool_stride_default():
    spec = parse("MP3-output", SQ, 1)
    assert spec.layers[0] == PoolSpec(3, 3)


def test_parse_conv_stride_default_and_explicit():
    spec = parse("96C7/2-8C1-output", SQ, 3)
    assert spec.layers[0] == ConvSpec(96, 7, 2)
    assert spec.layers[1] == ConvSpec(8, 1, 1)


def test_parse_whitespace_ignored():
    a = parse(" 32C2 - MP3/2 - output ", SQ, 1)
    b = parse("32C2-MP3/2-output", SQ, 1)
    assert a.layers == b.layers


def test_parse_fmp():
    spec = parse("32C2-FMP-64C2-output", LatticeKind.CUBIC, 1)
    assert isinstance(spec.layers[1], FMPSpec)
    assert spec.layers[1] == FMPSpec()


@pytest.mark.parametrize("lattice", [SQ, LatticeKind.TRIANGULAR, TET])
def test_parse_refuses_fmp_off_the_cubic_lattice_at_its_token(lattice):
    with pytest.raises(ParseError, match=re.escape(
            "fractional max pooling is defined on the cubic lattice only (at character 6)")):
        parse("32C2- FMP-64C2-output", lattice, 1)


def test_plan_refuses_a_field_above_the_packable_maximum():
    spec = parse("8C2-output", LatticeKind.CUBIC, 1)
    assert plan_partial(spec, MAX_COORD).planned_sizes == (MAX_COORD, MAX_COORD - 1)
    for plan_it in (lambda: plan_partial(spec, MAX_COORD + 1),
                    lambda: plan(parse("8C2-FMP-output", LatticeKind.CUBIC, 1), MAX_COORD + 1),
                    lambda: plan(parse(f"8C{MAX_COORD + 1}-output", LatticeKind.CUBIC, 1))):
        with pytest.raises(PlanError, match=re.escape(
                f"input field {MAX_COORD + 1} exceeds the packable maximum {MAX_COORD}")):
            plan_it()


def test_parse_errors_carry_offsets():
    with pytest.raises(ParseError) as e:
        parse("32C0-output", SQ, 1)
    assert e.value.offset == 0
    with pytest.raises(ParseError) as e:
        parse("32C2-XP3-output", SQ, 1)
    assert e.value.offset == 5
    with pytest.raises(ParseError):
        parse("32C2-MP3", SQ, 1)  # missing output
    with pytest.raises(ParseError):
        parse("output", SQ, 1)  # no layers
    with pytest.raises(ParseError):
        parse("32C2-output-MP3", SQ, 1)  # trailing layers


@pytest.mark.parametrize("text, message, offset", [
    ("", "empty architecture string", 0),
    (" \t\x1c", "empty architecture string", 0),
    ("32C2--output", "unknown token ''", 5),  # empty piece: the next '-'
    ("32C2- -output", "unknown token ''", 6),  # whitespace-only piece
    ("32C2-", "unknown token ''", 5),  # trailing '-': the end of the text
    ("32C2-output-", "unexpected token '' after output", 12),
    ("32C2-output - MP3", "unexpected token 'MP3' after output", 14),
    ("32C2-output-MP3-FMP", "unexpected token 'MP3' after output", 12),
    ("32C2 -  XP3-output", "unknown token 'XP3'", 8),
    ("32C2-  MP3/0-output", "nonpositive integer in 'MP3/0'", 7),
    ("-output", "unknown token ''", 0),
    ("32C2-MP3 ", "architecture must end in '-output'", 9),
    (" output ", "architecture needs at least one layer before output", 0),
    ("\u0663C2-output", "unknown token '\u0663C2'", 0),  # a non-ASCII digit
    ("32C2-\u3000XP3-output", "unknown token 'XP3'", 6),  # a 3-byte space is one character
])
def test_parse_error_messages_and_offsets(text, message, offset):
    for parser in (parse, compact_walk_parse):
        with pytest.raises(ParseError) as e:
            parser(text, SQ, 1)
        assert str(e.value) == f"{message} (at character {offset})"
        assert e.value.offset == offset


def test_parse_ignores_whitespace_inside_tokens():
    spec = parse("3 2C2-M P3/\t2 - ou tput", SQ, 1)
    assert spec.layers == (ConvSpec(32, 2), PoolSpec(3, 2), OutputSpec())
    assert spec == compact_walk_parse("3 2C2-M P3/\t2 - ou tput", SQ, 1)


_FUZZ_ALPHABET = 6 * ["32C2", "8C3/2", "1C1", "MP3/2", "MP2", "FMP", "output"] + [
    "0C2", "4C0", "MP0", "3C2/0", "MP3/0",  # zero counts and strides
    "-", " ", "\t", "\x1c", "\u0663", "+1", "1e3", "FMP2",
    "3", "C2", "/2", "MP",  # parts of tokens, to be joined across whitespace
]


def _random_architecture(rng) -> str:
    """Up to six pieces of one to three fragments each (valid tokens six
    times as likely as each other fragment), joined by dashes, then
    ``-output`` half the time."""
    pieces = ["".join(rng.choice(_FUZZ_ALPHABET, size=int(rng.choice([1, 1, 1, 1, 2, 3]))))
              for _ in range(int(rng.integers(0, 7)))]
    return "-".join(pieces) + ("-output" if rng.random() < 0.5 else "")


def _parse_outcome(parser, text):
    try:
        return "spec", parser(text, TET, 2)
    except ParseError as e:
        return "ParseError", str(e), e.offset
    except Exception as e:  # any other failure must match too
        return type(e).__name__, str(e)


def test_parse_agrees_with_compact_walk_on_random_strings():
    """Seeded strings of valid tokens, zero counts and strides, dashes,
    whitespace, a non-ASCII digit, tokens that only look valid and FMP,
    which the tetrahedral lattice refuses: the same spec, or the same error
    message and offset, as the original parser."""
    rng = np.random.default_rng(29)
    kinds = {}
    for _ in range(20_000):
        text = _random_architecture(rng)
        want = _parse_outcome(compact_walk_parse, text)
        assert _parse_outcome(parse, text) == want, repr(text)
        kind = re.split(r" '| \(at", want[1])[0] if want[0] == "ParseError" else want[0]
        kinds[kind] = kinds.get(kind, 0) + 1
    assert len(kinds) == 8 and min(kinds.values()) >= 50, kinds


# ---------------------------------------------------------------------------
# rendering


@pytest.mark.parametrize("text", [
    "32C2-MP3/2-output",
    "32C2-32C2-MP3/2-output",
    "192C2-MP3/2-224C2-output",
    "MP3-output",
    "32C3-MP3/2-64C2-MP3/2-128C2-MP3/2-256C2-MP3/2-512C3-output",
    "32C2-FMP-64C2-FMP-output",
    "96C7/2-output",
])
def test_render_round_trip(text):
    lattice = LatticeKind.CUBIC if "FMP" in text else SQ
    spec = parse(text, lattice, 1)
    assert render(spec) == text
    assert parse(render(spec), lattice, 1).layers == spec.layers


def test_render_elides_default_strides():
    spec = NetworkSpec(SQ, 1, (ConvSpec(32, 2, 1), PoolSpec(2, 2), OutputSpec()))
    assert render(spec) == "32C2-MP2-output"


# ---------------------------------------------------------------------------
# planning


def test_plan_small():
    spec = plan(parse("32C2-MP3/2-output", TET, 1))
    assert spec.planned_sizes == (4, 3, 1)


def test_plan_two_convs():
    spec = plan(parse("32C2-32C2-MP3/2-output", SQ, 1))
    assert spec.planned_sizes == (5, 4, 3, 1)


def test_plan_cifar_field():
    spec = plan(parse(cifar_arch(), SQ, 3))
    assert spec.planned_sizes[0] == 189
    assert spec.planned_sizes[-1] == 1


def test_plan_round_trips_through_out_size():
    from latticenet.geometry import out_size
    spec = plan(parse("32C3-MP3/2-64C2-MP2-output", SQ, 1))
    sizes = list(spec.planned_sizes)
    m = sizes[0]
    ks = [(3, 1), (3, 2), (2, 1), (2, 2)]
    for i, (k, s) in enumerate(ks):
        m = out_size(m, k, s)
        assert m == (sizes[i + 1] if i + 1 < len(sizes) else 1)
    assert m == 1


def test_plan_fig5_style_tetra_ladders():
    """conv+pool blocks with a final conv: 4 pools need a field of 62."""
    arch = "32C2-MP3/2-64C2-MP3/2-96C2-MP3/2-128C2-MP3/2-160C2-output"
    spec = plan(parse(arch, TET, 1))
    assert spec.planned_sizes[0] == 62
    assert spec.planned_sizes[-1] == 1


def test_plan_fmp_requires_input_size():
    spec = parse("32C2-FMP-64C2-FMP-output", LatticeKind.CUBIC, 1)
    with pytest.raises(PlanError):
        plan(spec)


def test_plan_fmp_forward_ladder():
    arch = "32C2-FMP-64C2-FMP-96C2-FMP-128C2-FMP-output"
    spec = plan(parse(arch, LatticeKind.CUBIC, 1), input_size=20)
    assert spec.planned_sizes == (20, 19, 11, 10, 6, 5, 3, 2, 1)


def test_plan_fmp_infeasible():
    spec = parse("32C2-FMP-output", LatticeKind.CUBIC, 1)
    with pytest.raises(PlanError):
        plan(spec, input_size=3 + 1)  # conv -> 3, FMP from 3 cannot tile


def test_plan_rejects_wrong_input_size():
    spec = parse("32C2-MP3/2-output", TET, 1)
    with pytest.raises(PlanError, match="requires input field 4"):
        plan(spec, input_size=20)


def test_required_input_size():
    assert plan(parse("32C2-MP3/2-output", TET, 1)).planned_sizes == (4, 3, 1)


# ---------------------------------------------------------------------------
# op counting


def test_count_ops_unplanned_spec_rejected():
    spec = parse("1C2-output", SQ, 1)
    with pytest.raises(PlanError):
        count_ops(spec, "dense")


def test_count_ops_worked_example():
    """m_in=3, f=2, s=1, n_in=n_out=1 dense: a_out=4, 16 MACs."""
    spec = NetworkSpec(SQ, 1, (ConvSpec(1, 2, 1), OutputSpec()), (3, 2, 1)[:2])
    rep = count_ops(spec, "dense")
    layer0 = rep["layers"][0]
    assert layer0["a_out"] == 4
    assert layer0["macs"] == 16
    assert rep["total_macs"] == 16


def test_count_ops_first_layer_3d_2d_ratio_784():
    """7x7(x7) stride-2 first layers sized for 112 applications per axis."""
    from latticenet.netspec import plan_partial
    spec2d = plan_partial(parse("96C7/2-output", SQ, 3), input_size=229)
    spec3d = plan_partial(parse("96C7/2-output", LatticeKind.CUBIC, 3), input_size=229)
    r2 = count_ops(spec2d, "dense")["layers"][0]
    r3 = count_ops(spec3d, "dense")["layers"][0]
    assert r2["a_out"] == 112 ** 2
    assert r3["a_out"] == 112 ** 3
    assert r3["macs"] / r2["macs"] == 784.0


def test_count_ops_triangular_vs_square_ratio():
    sq = plan(parse(cifar_arch(), SQ, 3))
    tri = plan(parse(cifar_arch(), LatticeKind.TRIANGULAR, 3))
    total_sq = count_ops(sq, geometric_activity(sq, 32))["total_macs"]
    total_tri = count_ops(tri, geometric_activity(tri, 32))["total_macs"]
    ratio = total_tri / total_sq
    assert 0.65 <= ratio <= 0.82


def test_count_ops_linear_in_activity():
    spec = plan(parse("4C2-MP2-8C2-output", SQ, 2))
    act = [10, 5, 3, 1]
    total1 = count_ops(spec, act)["total_macs"]
    total2 = count_ops(spec, [2 * a for a in act])["total_macs"]
    assert total2 == 2 * total1


def test_count_ops_activity_length_check():
    spec = plan(parse("4C2-output", SQ, 1))
    with pytest.raises(ValueError):
        count_ops(spec, [1, 2, 3])


def test_count_ops_pooling_free():
    spec = plan(parse("4C2-MP3/2-output", SQ, 1))
    rep = count_ops(spec, "dense")
    pool_row = rep["layers"][1]
    assert pool_row["macs"] == 0


def test_count_ops_matches_engine_gather_rows(rng):
    """Dense input: counted MACs equal what the engine actually multiplies."""
    from latticenet.geometry import GridShape
    from latticenet.grid import DenseGrid, SparseGrid
    from latticenet.network import Network

    spec = plan(parse("3C2-MP2-5C2-output", TET, 2))
    rep = count_ops(spec, "dense", classes=4)
    net = Network(spec, 4, rng)
    shape = GridShape(TET, spec.planned_sizes[0])
    dense = DenseGrid(shape, rng.normal(size=(shape.num_sites, 2)))
    grid = SparseGrid.from_dense(dense, np.zeros(2))
    _, _, macs = net.forward_batch([grid])
    assert macs == rep["total_macs"]


def test_classifier_params_counted():
    spec = plan(parse("32C2-output", TET, 3))
    rep = count_ops(spec, "dense", classes=10)
    conv_row = rep["layers"][0]
    assert conv_row["params"] == 4 * 3 * 32 + 32  # tetra f=2 footprint is 4
    assert rep["layers"][1]["params"] == 32 * 10 + 10


def test_geometric_activity_centered_box():
    lo, hi = centered_box(SQ, 189, 32)
    assert (lo == 78).all() and (hi == 109).all()
    lo, hi = centered_box(LatticeKind.TRIANGULAR, 189, 32)
    assert (lo == 42).all() and (hi == 73).all()


def test_format_report_text_and_json():
    spec = plan(parse("4C2-output", SQ, 1))
    rep = count_ops(spec, "dense")
    text = format_report(rep)
    assert "total MACs" in text
    import json
    doc = json.loads(format_report(rep, as_json=True))
    assert doc["total_macs"] == rep["total_macs"]
