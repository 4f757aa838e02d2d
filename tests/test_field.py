"""GF(2^m) arithmetic: construction, multiplication, trace, and the cached tables."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from oracles import irreducibles, largest_irreducible
from tracecodes.field import (
    DEFAULT_POLYS,
    GF2m,
    is_irreducible,
    mul_row,
    poly_mod,
    trace_coordinates,
    trace_table,
    unit_inverses,
)


def lowest_irreducible(m: int) -> int:
    # independent rederivation: scan monic degree-m polynomials in integer order
    for poly in range(1 << m, 1 << (m + 1)):
        if is_irreducible(poly):
            return poly
    raise AssertionError(f"no irreducible polynomial of degree {m}")


def naive_poly_mul_mod(a: int, b: int, poly: int, m: int) -> int:
    # schoolbook carry-less multiply, then remainder
    prod = 0
    for i in range(a.bit_length()):
        if (a >> i) & 1:
            prod ^= b << i
    return poly_mod(prod, poly)


def test_default_polys_are_lowest_irreducibles():
    for m, poly in DEFAULT_POLYS.items():
        assert poly == lowest_irreducible(m)


def test_default_polys_cover_supported_degrees():
    assert sorted(DEFAULT_POLYS) == list(range(2, 17))


def test_constructor_defaults_and_validation():
    assert GF2m(2).poly == 0b111
    assert GF2m(3).poly == 0b1011
    with pytest.raises(ValueError):
        GF2m(1)
    with pytest.raises(ValueError):
        GF2m(17)
    with pytest.raises(ValueError):
        GF2m(2, 0b101)  # x^2+1 = (x+1)^2
    with pytest.raises(ValueError):
        GF2m(3, 0b111)  # degree 2 polynomial for m=3
    # a float degree would pass the range checks and fail at its first .size
    for args in ((3.0,), (3, 11.0), ("3",), (3, "11"), (None,)):
        with pytest.raises(TypeError):
            GF2m(*args)
    for poly in (-11, -9, -3):  # -11 and -9 have bit_length 4, as a degree-3 poly would
        with pytest.raises(ValueError):
            GF2m(3, poly)
        with pytest.raises(ValueError):
            is_irreducible(poly)


def test_is_irreducible_reads_the_degree_and_refuses_unsupported_ones():
    assert is_irreducible(0b10011)  # x^4+x+1
    assert not is_irreducible(0b10101)  # (x^2+x+1)^2, which no degree-1 divisor exposes
    assert is_irreducible(0b111) and not is_irreducible(0b101)
    # refused before any division: x^127+x+1 is irreducible, but dividing would never finish
    for poly in (-0b10011, 0, 1, 0b11, (1 << 17) | 0b1001, (1 << 127) | 0b11, 1 << 100000):
        with pytest.raises(ValueError):
            is_irreducible(poly)


def test_contexts_are_immutable_values():
    ctx = GF2m(8)
    assert ctx == GF2m(8, 0b100011011) and hash(ctx) == hash(GF2m(8, 0b100011011))
    assert ctx != GF2m(8, largest_irreducible(8))
    assert trace_table(GF2m(8)) is trace_table(GF2m(8))  # the cached tables key on the value
    assert repr(GF2m(3)) == "GF2m(m=3, poly=11)"
    with pytest.raises(AttributeError):
        ctx.m = 3
    with pytest.raises(ValueError):
        ctx._replace(poly=0b100011001)  # x^8+x^4+x^3+1 is divisible by x+1


def test_cached_tables_keep_a_bounded_number_of_fields():
    # a loop over reduction polynomials must not keep every field's q-entry tables
    caches = (trace_table, unit_inverses, trace_coordinates)
    for poly in irreducibles(10)[:20]:
        ctx = GF2m(10, poly)
        for table in caches:
            table(ctx)
    for table in caches:
        assert table.cache_info().currsize <= 15, table.__name__


def test_elements_and_units():
    ctx = GF2m(3)
    assert list(ctx.elements()) == list(range(8))
    assert list(ctx.units()) == list(range(1, 8))
    assert ctx.size == 8


def test_mul_examples():
    gf4 = GF2m(2)
    assert gf4.mul(2, 2) == 3  # w^2 = w+1
    gf8 = GF2m(3)
    assert gf8.mul(2, 4) == 3  # a^3 = a+1
    for ctx in (gf4, gf8):
        for a in ctx.elements():
            assert ctx.mul(a, 1) == a
            assert ctx.mul(a, 0) == 0


def test_mul_and_trace_refuse_operands_outside_the_field():
    # an operand of q or more would give a value outside the field: trace(9) was 4240
    ctx = GF2m(3)
    for a, b in ((8, 1), (1, 8), (9, 9)):
        with pytest.raises(ValueError):
            ctx.mul(a, b)
    for a in (8, 9, 255):
        with pytest.raises(ValueError):
            ctx.trace(a)


@pytest.mark.parametrize("call", ["mul(1, -1)", "mul(-1, 1)", "trace(-1)"])
def test_negative_operands_are_refused_in_a_new_interpreter(call):
    # under a timeout, since the shift loop over a negative operand never reached 0
    script = (
        "from tracecodes.field import GF2m\n"
        f"try:\n    GF2m(3).{call}\nexcept ValueError:\n    print('refused')\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=20,
    )
    assert (proc.returncode, proc.stdout) == (0, "refused\n"), proc.stderr


def test_mul_matches_naive_and_is_a_field_product():
    for m in (2, 3, 4):
        ctx = GF2m(m)
        for a in ctx.elements():
            for b in ctx.elements():
                expected = naive_poly_mul_mod(a, b, ctx.poly, m)
                assert ctx.mul(a, b) == expected
                assert ctx.mul(a, b) == ctx.mul(b, a)


def test_mul_associative_and_distributive():
    ctx = GF2m(3)
    for a in ctx.elements():
        for b in ctx.elements():
            for c in ctx.elements():
                assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
                assert ctx.mul(a, b ^ c) == ctx.mul(a, b) ^ ctx.mul(a, c)


def test_trace_examples():
    for m in range(2, 9):
        ctx = GF2m(m)
        assert ctx.trace(0) == 0
        assert ctx.trace(1) == (m % 2)
    assert GF2m(2).trace(2) == 1  # w + w^2 = 1


def test_trace_additive_and_frobenius_invariant():
    for m in (2, 3, 4):
        ctx = GF2m(m)
        for a in ctx.elements():
            assert ctx.trace(ctx.mul(a, a)) == ctx.trace(a)
            for b in ctx.elements():
                assert ctx.trace(a ^ b) == ctx.trace(a) ^ ctx.trace(b)


def test_trace_balance():
    # exactly half of the field has trace zero
    for m in range(2, 7):
        ctx = GF2m(m)
        zeros = sum(1 for a in ctx.elements() if ctx.trace(a) == 0)
        assert zeros == 1 << (m - 1)


def test_trace_is_onto_gf2():
    for m in (2, 3, 4, 5):
        ctx = GF2m(m)
        assert {ctx.trace(a) for a in ctx.elements()} == {0, 1}


def test_tables_agree_with_methods():
    for m in (2, 3, 4):
        ctx = GF2m(m)
        tt = trace_table(ctx)
        for a in ctx.elements():
            assert tt[a] == ctx.trace(a)


# irreducible but not primitive: x has order 5 and 9 respectively
NON_PRIMITIVE = {4: 0b11111, 6: 0b1001001}


def test_mul_row():
    for m in range(2, 7):
        for poly in (DEFAULT_POLYS[m], NON_PRIMITIVE.get(m)):
            if poly is None:
                continue
            ctx = GF2m(m, poly)
            for a in ctx.elements():
                row = mul_row(ctx, a)
                assert len(row) == ctx.size
                assert row == [ctx.mul(a, y) for y in ctx.elements()], (m, poly, a)
    for m, poly in NON_PRIMITIVE.items():
        ctx = GF2m(m, poly)
        order, z = 1, 2
        while z != 1:
            order, z = order + 1, ctx.mul(z, 2)
        assert order < (1 << m) - 1 and ((1 << m) - 1) % order == 0


# every irreducible polynomial of degree 2..8, primitive or not
ALL_POLYS = [(m, poly) for m in range(2, 9) for poly in irreducibles(m)]
SAMPLE_UNITS = random.Random(16).sample(range(1, 1 << 16), 2000)


def test_trace_table_is_the_trace_at_every_element():
    for m, poly in ALL_POLYS:
        ctx = GF2m(m, poly)
        assert trace_table(ctx) == tuple(ctx.trace(z) for z in ctx.elements()), (m, poly)
    ctx = GF2m(16)
    table = trace_table(ctx)
    assert len(table) == ctx.size and table[0] == 0
    for z in SAMPLE_UNITS:
        assert table[z] == ctx.trace(z), z


def test_unit_inverses():
    for m, poly in ALL_POLYS:
        ctx = GF2m(m, poly)
        inverses = unit_inverses(ctx)
        assert len(inverses) == ctx.size and inverses[0] == 0
        assert all(ctx.mul(x, inverses[x]) == 1 for x in ctx.units()), (m, poly)
    ctx = GF2m(16)  # its default polynomial is not primitive
    inverses = unit_inverses(ctx)
    assert len(inverses) == ctx.size and inverses[0] == 0
    for x in SAMPLE_UNITS:
        assert ctx.mul(x, inverses[x]) == 1, x


def test_trace_coordinates_bits():
    for m, poly in ALL_POLYS:
        ctx = GF2m(m, poly)
        coords = trace_coordinates(ctx)
        tr = [ctx.trace(z) for z in ctx.elements()]
        assert len(coords) == ctx.size
        for z in ctx.elements():
            for j in range(m):
                assert (coords[z] >> j) & 1 == tr[ctx.mul(z, 1 << j)], (m, poly, z, j)
        if m <= 4:
            for a in ctx.elements():
                for b in ctx.elements():
                    assert coords[a ^ b] == coords[a] ^ coords[b]
    ctx = GF2m(16)
    coords = trace_coordinates(ctx)
    assert len(coords) == ctx.size and coords[0] == 0
    for z in SAMPLE_UNITS[:250]:  # 16 traces each
        for j in range(16):
            assert (coords[z] >> j) & 1 == ctx.trace(ctx.mul(z, 1 << j)), (z, j)


def test_trace_coordinates_injective():
    # the coordinate map is a linear bijection onto m-bit vectors
    for m in (2, 3, 4, 5):
        coords = trace_coordinates(GF2m(m))
        assert sorted(coords) == list(range(1 << m))
