"""
The benchmark's workloads: how each one sets up, draws its inputs, runs one
op and checks the op's outputs.

Every random stream is seeded from the workload seed with `zlib.crc32`, so
inputs are the same in every process whatever `PYTHONHASHSEED` is.  Ops
rotate over a fixed list of algebras; op `i` runs on algebra `i % len`, and
each algebra draws from its own stream, in order.

The library is reached only through attribute lookups on the imported
package at call time, so wrappers that the tracer installs are seen.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import tempfile
import zlib
from fractions import Fraction
from math import comb
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_FILE = BENCH_DIR / "reference_digests.json"
DEFAULT_SEED = 0

# B2 with a cyclotomic parameter, so products carry Cyc scalars
B2_CYC = {"types": [["B", 2]], "k": ["z", "1"], "cyclotomic_order": 3}
# the coefficients verification.random_homogeneous_element draws from
COEFFS = [Fraction(n, d) for n in (-3, -2, -1, 1, 2, 3) for d in (1, 2)]


def stream(*parts) -> random.Random:
    """A random stream that depends only on its parts, in every process."""
    return random.Random(zlib.crc32("/".join(str(p) for p in parts).encode()))


def short_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_references() -> dict:
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)


class Workload:
    """Shared op loop state.  Subclasses define the algebras and the op."""

    name = ""
    labels: tuple = ()

    def __init__(self, gh, seed: int, references: dict):
        self.gh = gh
        self.references = references.get(self.name) if seed == references["seed"] else None
        self.rotation = len(self.labels)

    def label(self, i: int) -> str:
        return self.labels[i % self.rotation]

    def reference(self, i: int):
        """The committed digest of op i, or None when there is none."""
        if self.references is None or i >= len(self.references):
            return None
        return self.references[i]

    def close(self):
        pass


class Deck:
    """Deals a list's items in shuffled rounds, so each comes up equally often."""

    def __init__(self, items, rng: random.Random):
        self.items, self.rng, self.pending = list(items), rng, []

    def deal(self):
        if not self.pending:
            self.pending = self.items[:]
            self.rng.shuffle(self.pending)
        return self.pending.pop()


class Assoc(Workload):
    """(a*b)*c == a*(b*c) on random homogeneous two-term elements.

    The elements are drawn as `verification.random_homogeneous_element`
    draws them, except that the group element of each term is dealt from a
    deck of the group and the half-degrees (0, 1 or 2) of a, b and c from a
    deck of all 27 combinations.  Those two choices set most of an op's
    cost, so dealing them keeps the mix of cheap and dear ops the same from
    seed to seed; exponents and coefficients are drawn at random.
    """

    name = "assoc"
    labels = ("B2", "G2", "A2flip-tw", "B2-cyc3")

    def __init__(self, gh, seed, references):
        super().__init__(gh, seed, references)
        self.algebras = [gh.build_preset(n) for n in self.labels[:3]]
        self.algebras.append(gh.algebra_from_config(B2_CYC))
        self.streams = [stream(self.name, label, seed) for label in self.labels]
        self.group_decks = [Deck(alg.group.elements, rng)
                            for alg, rng in zip(self.algebras, self.streams)]
        self.degree_decks = [Deck(itertools.product(range(3), repeat=3), rng)
                             for rng in self.streams]

    def make_input(self, i: int):
        k = i % self.rotation
        return tuple(self._element(k, d) for d in self.degree_decks[k].deal())

    def _element(self, k: int, half_degree: int):
        alg, rng, nv = self.algebras[k], self.streams[k], self.algebras[k].nvars
        terms = {}
        for _ in range(2):
            w = self.group_decks[k].deal().index
            expo = [0] * nv
            for _ in range(half_degree):
                expo[rng.randrange(nv)] += 1
            p = self.gh.Polynomial(nv, {tuple(expo): rng.choice(COEFFS)})
            terms[w] = terms[w] + p if w in terms else p
        return alg.from_terms(terms)

    def run(self, triple):
        a, b, c = triple
        right = a * (b * c)
        return (a * b) * c == right, right

    def check(self, triple, out):
        holds, right = out
        digest = short_digest(right.to_string())
        return holds, digest, {}


class Modules(Workload):
    """Induce at a regular weight; check weights, restriction and Ext."""

    name = "modules"
    labels = ("B2", "G2", "A2flip")

    def __init__(self, gh, seed, references):
        super().__init__(gh, seed, references)
        self.algebras = [gh.build_preset(n, mode="r1") for n in self.labels]
        self.tables = [gh.TwistedGroupAlgebra(a.group, a.cocycle) for a in self.algebras]
        self.streams = [stream(self.name, label, seed) for label in self.labels]

    def make_input(self, i: int):
        k = i % self.rotation
        alg, rng = self.algebras[k], self.streams[k]
        while True:
            weight = tuple(Fraction(rng.randint(-12, 12), rng.choice((1, 2)))
                           for _ in range(alg.rs.dim))
            if self.gh.modules.is_regular(alg, weight):
                return k, weight

    def run(self, inp):
        gh = self.gh
        k, weight = inp
        alg, table = self.algebras[k], self.tables[k]
        module = gh.induce_from_character(alg, weight)
        weights = gh.weight_decomposition(module)
        oracle = gh.modules.weight_multiset_oracle(alg, weight)
        _, mults = gh.restrict_to_group_algebra(module, table)
        ext = gh.ext_self_induced(alg, weight, module=module).as_tuple()
        return weights, oracle, mults, ext

    def check(self, inp, out):
        k, weight = inp
        weights, oracle, mults, ext = out
        table = self.tables[k]
        d = self.algebras[k].rs.dim
        flat = sorted(datum.weight for datum in weights for _ in range(datum.multiplicity))
        holds = (flat == oracle
                 and mults == [block.dim for block in table.blocks]
                 and ext == tuple(comb(d + 1, n) for n in range(d + 2)))
        canonical = json.dumps([[[str(c) for c in datum.weight], datum.multiplicity]
                                for datum in weights] + [list(ext)])
        return holds, short_digest(canonical), {}


class Export(Workload):
    """`gradedhecke export ... structure --degree-cap 1`, run in process."""

    name = "export"
    labels = ("A2flip-tw", "B2", "G2")

    def __init__(self, gh, seed, references):
        super().__init__(gh, seed, references)
        import gradedhecke.cli  # noqa: F401  (part of set-up: the CLI import)

        order = list(self.labels)
        stream(self.name, seed).shuffle(order)
        self.labels = tuple(order)
        self.expected = references["export"]
        self._workdir = tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR)
        self.out_path = str(Path(self._workdir.name) / "structure.json")

    def reference(self, i: int):
        # the export does not depend on the workload seed
        return self.expected.get(self.label(i))

    def make_input(self, i: int):
        Path(self.out_path).unlink(missing_ok=True)
        return ["export", "--preset", self.label(i), "structure", "--degree-cap", "1",
                "--seed", "11", "--out", self.out_path]

    def run(self, argv):
        return self.gh.cli.main(argv)

    def check(self, argv, code):
        with open(self.out_path, "rb") as fh:
            data = fh.read()
        return code == 0, hashlib.sha256(data).hexdigest(), {"cli.export.bytes": len(data)}

    def close(self):
        self._workdir.cleanup()


WORKLOADS = {cls.name: cls for cls in (Assoc, Modules, Export)}
