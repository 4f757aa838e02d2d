"""The benchmark's workloads and the inputs a seed derives from them.

A workload is a fixed list of `tracecodes` CLI invocations that make up one
pass.  Each also has a smoke scale with small m, used by the self-test and
covered by the committed reference answers.  The seed decides the order of
the invocations in every pass and, in the traced pass, the irreducible
reduction polynomial handed to `GF2m` for each field degree.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

Argv = tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    full: tuple[Argv, ...]
    smoke: tuple[Argv, ...]

    def argvs(self, smoke: bool = False) -> tuple[Argv, ...]:
        return self.smoke if smoke else self.full


def _verify(m: int) -> tuple[Argv, ...]:
    return tuple(("verify", "--family", str(f), "--m", str(m)) for f in (1, 2, 3))


def _sumset(cases: tuple[tuple[int, int], ...]) -> tuple[Argv, ...]:
    return tuple(
        ("sumset", "--family", str(f), "--m", str(m), "--s", str(s))
        for f, m in cases
        for s in (3, 7)
    )


# Two workloads, each the invocations of two CLI commands, so that a run of
# run_seconds averages over the machine's slow and fast spells; why each is
# in the benchmark is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify-sweep",
            _verify(8) + (("sweep", "--max-m", "7"),),
            _verify(3) + (("sweep", "--max-m", "3"),),
        ),
        Workload(
            "charsums-sumset",
            (("charsums", "--m", "6"),) + _sumset(((1, 8), (2, 5))),
            (("charsums", "--m", "3"),) + _sumset(((1, 3), (2, 3))),
        ),
    )
}


def largest_m(argvs: tuple[Argv, ...]) -> int:
    """Largest field degree any invocation builds (`--m` or `--max-m`)."""
    return max(int(a[i + 1]) for a in argvs for i, tok in enumerate(a) if tok in ("--m", "--max-m"))


def pass_order(argvs: tuple[Argv, ...], rng: random.Random) -> list[Argv]:
    order = list(argvs)
    rng.shuffle(order)
    return order


def _irreducible(poly: int, m: int) -> bool:
    """Trial division by every polynomial of degree 1..m//2 over GF(2)."""
    for divisor in range(2, 1 << (m // 2 + 1)):
        rem = poly
        while rem.bit_length() >= divisor.bit_length():
            rem ^= divisor << (rem.bit_length() - divisor.bit_length())
        if rem == 0:
            return False
    return True


def reduction_poly(m: int, seed: int) -> int:
    """Seed 0 gives 0, which `GF2m` reads as its default polynomial.

    Any other seed picks one irreducible polynomial of degree m uniformly,
    primitive or not, so a fast path that assumes either shows up.
    """
    if seed == 0:
        return 0
    candidates = [p for p in range(1 << m, 1 << (m + 1)) if _irreducible(p, m)]
    return random.Random(seed * 1000 + m).choice(candidates)
