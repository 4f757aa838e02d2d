"""GF(2^m) arithmetic: construction, multiplication, inversion, trace."""

from __future__ import annotations

import random

import pytest

from oracles import largest_irreducible
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


def test_inv():
    gf4 = GF2m(2)
    assert gf4.inv(1) == 1
    assert gf4.inv(2) == 3
    with pytest.raises(ZeroDivisionError):
        gf4.inv(0)
    for m in (2, 3, 4, 5):
        ctx = GF2m(m)
        for a in ctx.units():
            assert ctx.mul(a, ctx.inv(a)) == 1
            assert ctx.inv(ctx.inv(a)) == a


def test_power():
    ctx = GF2m(4)
    for a in ctx.units():
        assert ctx.power(a, ctx.size - 1) == 1
        assert ctx.power(a, 0) == 1
        assert ctx.power(a, 3) == ctx.mul(a, ctx.mul(a, a))


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
        assert ctx.power(2, (1 << m) - 1) == 1
        assert any(ctx.power(2, e) == 1 for e in range(1, (1 << m) - 1))


def test_trace_table_is_the_trace_at_every_element():
    for m in range(2, 9):
        for poly in (DEFAULT_POLYS[m], NON_PRIMITIVE.get(m)):
            if poly is None:
                continue
            ctx = GF2m(m, poly)
            assert trace_table(ctx) == tuple(ctx.trace(z) for z in ctx.elements()), (m, poly)
    ctx = GF2m(16)
    table = trace_table(ctx)
    assert len(table) == ctx.size
    for z in random.Random(16).sample(range(ctx.size), 2000):
        assert table[z] == ctx.trace(z), z


def test_unit_inverses():
    for m in range(2, 9):
        for poly in (DEFAULT_POLYS[m], NON_PRIMITIVE.get(m)):
            if poly is None:
                continue
            ctx = GF2m(m, poly)
            inverses = unit_inverses(ctx)
            assert len(inverses) == ctx.size and inverses[0] == 0
            assert all(ctx.mul(x, inverses[x]) == 1 for x in ctx.units()), (m, poly)


def test_trace_coordinates_bits():
    for m in (2, 3, 4):
        ctx = GF2m(m)
        coords = trace_coordinates(ctx)
        for z in ctx.elements():
            for j in range(m):
                basis = ctx.power(2, j)  # alpha^j
                assert (coords[z] >> j) & 1 == ctx.trace(ctx.mul(basis, z))
        for a in ctx.elements():
            for b in ctx.elements():
                assert coords[a ^ b] == coords[a] ^ coords[b]


def test_trace_coordinates_injective():
    # the coordinate map is a linear bijection onto m-bit vectors
    for m in (2, 3, 4, 5):
        coords = trace_coordinates(GF2m(m))
        assert sorted(coords) == list(range(1 << m))
