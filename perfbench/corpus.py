"""Seeded corpus generator for the codekraft benchmark.

A workload is a fixed ladder of slots: the code family, size and alphabet
of every slot, and the commands run on it, do not depend on the seed.  The
seed picks the concrete words in each slot; for the small codes, whose
cost depends on their exact shape, the shape is fixed too and the seed
relabels it.  Keeping the ladder fixed keeps the run-to-run cost steady
across seeds while the inputs still change.

Every code records the answer its construction guarantees (UD or not, and
for a planted collision the two words whose concatenation is ambiguous).
This module does not import codekraft: the program sees only the files
that :meth:`Corpus.write` produces.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from pathlib import Path

SYMBOLS = "0123456789"

# ud-sweep runs by hand but is not declared in BENCHMARK.json: on a shared
# 2-vCPU host its ops_per_s and latency_tail_ms spread by more than 0.25 of
# their median over ten 30 s runs, though its work is the same under every seed
WORKLOADS = ("ud-sweep", "power-refine", "verify-small")

# ratio sqrt(2) from 16 to 1024 words, so latencies spread evenly instead of
# clustering into a few sizes with gaps between them
SWEEP_SIZES = (16, 23, 32, 45, 64, 91, 128, 181, 256, 362, 512, 724, 1024)
SWEEP_FAMILIES = ("prefix", "suffix", "composed", "collision")


@dataclass(frozen=True)
class CodeSpec:
    """One generated code and the answer its construction guarantees."""

    name: str
    alphabet: str
    words: tuple[str, ...]
    ud: bool
    family: str
    # planted collision: u·v is a code word and so are u and v
    collision: tuple[str, str] | None = None

    @property
    def text(self) -> str:
        return f"alphabet {self.alphabet}\n" + "".join(w + "\n" for w in self.words)


@dataclass(frozen=True)
class Command:
    """One CLI invocation over corpus files, named by code."""

    kind: str
    codes: tuple[str, ...]
    options: tuple[str, ...] = ()
    json: bool = False
    # refines only: whether the fine code refines the coarse one, by construction
    holds: bool | None = None

    def argv(self, directory: Path) -> list[str]:
        files = [str(directory / f"{name}.code") for name in self.codes]
        return [*(["--json"] if self.json else []), self.kind, *files, *self.options]


@dataclass(frozen=True)
class Corpus:
    workload: str
    codes: dict[str, CodeSpec]
    commands: tuple[Command, ...]  # one round, in run order
    description: str

    def write(self, directory: Path) -> list[Path]:
        directory.mkdir(parents=True, exist_ok=True)
        paths = []
        for spec in self.codes.values():
            path = directory / f"{spec.name}.code"
            path.write_text(spec.text, encoding="utf-8")
            paths.append(path)
        return paths


def shortlex(alphabet: str):
    return lambda w: (len(w), [alphabet.index(ch) for ch in w])


def prefix_free(words) -> bool:
    ordered = sorted(words)
    return not any(b.startswith(a) for a, b in zip(ordered, ordered[1:]))


def suffix_free(words) -> bool:
    return prefix_free(w[::-1] for w in words)


def full_size(n: int, r: int) -> int:
    """The least leaf count >= n that a full r-ary tree can have."""
    return n + (-(n - 1)) % (r - 1)


def prefix_code(rng: random.Random, alphabet: str, n: int, balanced: bool) -> list[str]:
    """A random Kraft-1 prefix code: the leaves of a full tree with n leaves.

    ``n`` must be 1 modulo r - 1.  A balanced tree only splits leaves within
    one level of the shallowest, so word lengths differ by at most two.
    """
    r = len(alphabet)
    if (n - 1) % (r - 1):
        raise ValueError(f"no full {r}-ary tree has {n} leaves")
    by_depth: dict[int, list[str]] = {0: [""]}
    leaves = 1
    while leaves < n:
        if balanced:
            low = min(d for d, ws in by_depth.items() if ws)
            pool = [(d, i) for d in (low, low + 1) for i in range(len(by_depth.get(d, ())))]
        else:
            pool = [(d, i) for d, ws in by_depth.items() for i in range(len(ws))]
        depth, i = rng.choice(pool)
        bucket = by_depth[depth]
        bucket[i], bucket[-1] = bucket[-1], bucket[i]
        parent = bucket.pop()
        by_depth.setdefault(depth + 1, []).extend(parent + s for s in alphabet)
        leaves += r - 1
    return [w for ws in by_depth.values() for w in ws]


def trimmed_prefix_code(rng, alphabet, n, balanced) -> list[str]:
    """A prefix code with exactly n words; Kraft sum 1 only when n allows it."""
    words = prefix_code(rng, alphabet, full_size(n, len(alphabet)), balanced)
    return rng.sample(words, n)


def composed_code(rng: random.Random, alphabet: str, n: int) -> list[str]:
    """A suffix code over m letters mapped through an m-word prefix code.

    Composition preserves unique decipherability.  The outer prefix code is
    not a suffix code, so the result is usually neither prefix- nor
    suffix-free; draws that are either are rejected.
    """
    m = 4 if len(alphabet) == 2 else 5
    while True:
        outer = prefix_code(rng, alphabet, m, balanced=False)
        if suffix_free(outer):
            continue
        inner_alphabet = SYMBOLS[:m]
        inner = prefix_code(rng, inner_alphabet, full_size(n, m), balanced=True)
        inner = [w[::-1] for w in rng.sample(inner, n)]
        words = ["".join(outer[int(ch)] for ch in w) for w in inner]
        if not prefix_free(words) and not suffix_free(words):
            return words


def random_word(rng: random.Random, alphabet: str, length: int) -> str:
    return "".join(rng.choice(alphabet) for _ in range(length))


def relabel(rng: random.Random, alphabet: str, words) -> list[str]:
    """Permute the children of every tree node at random.

    The words change but the tree shape, the word lengths and prefix- or
    suffix-freeness do not, so the cost of a command on the code barely moves.
    """
    perms: dict[str, dict[str, str]] = {}
    out = []
    for w in words:
        for i in range(len(w)):
            perms.setdefault(w[:i], dict(zip(alphabet, rng.sample(alphabet, len(alphabet)))))
        out.append("".join(perms[w[:i]][ch] for i, ch in enumerate(w)))
    return out


def permuted(rng: random.Random, alphabet: str, words) -> list[str]:
    """Rename the symbols by one random permutation."""
    mapping = dict(zip(alphabet, rng.sample(alphabet, len(alphabet))))
    return ["".join(mapping[ch] for ch in w) for w in words]


class _Codes:
    def __init__(self):
        self.specs: dict[str, CodeSpec] = {}

    def add(self, name, alphabet, words, ud, family, collision=None) -> str:
        if name in self.specs:
            raise ValueError(f"duplicate code name {name}")
        ordered = tuple(sorted(set(words), key=shortlex(alphabet)))
        if len(ordered) != len(words):
            raise ValueError(f"code {name} repeats a word")
        self.specs[name] = CodeSpec(name, alphabet, ordered, ud, family, collision)
        return name

    def add_collision(self, rng, name, alphabet, base, family) -> str:
        u, v = rng.choice(base), rng.choice(base)
        # u·v is new: were it in a UD base, u·v = (u)(v) would already collide
        return self.add(name, alphabet, [*base, u + v], False, family, (u, v))


def _ud_sweep(rng: random.Random) -> tuple[_Codes, list[Command], str]:
    codes = _Codes()
    commands: list[Command] = []
    for alphabet in ("01", "012"):
        r = len(alphabet)
        for i, size in enumerate(SWEEP_SIZES):
            for j, family in enumerate(SWEEP_FAMILIES):
                name = f"{family}-r{r}-{size:04d}"
                if family == "prefix":
                    codes.add(name, alphabet, prefix_code(rng, alphabet, full_size(size, r), True), True, family)
                elif family == "suffix":
                    words = prefix_code(rng, alphabet, full_size(size, r), True)
                    codes.add(name, alphabet, [w[::-1] for w in words], True, family)
                elif family == "composed":
                    codes.add(name, alphabet, composed_code(rng, alphabet, size), True, family)
                else:
                    base_family = SWEEP_FAMILIES[i % 3]
                    if base_family == "composed":
                        base = composed_code(rng, alphabet, size - 1)
                    else:
                        base = trimmed_prefix_code(rng, alphabet, size - 1, True)
                        if base_family == "suffix":
                            base = [w[::-1] for w in base]
                    codes.add_collision(rng, name, alphabet, base, f"collision-{base_family}")
                commands.append(Command("kraft", (name,)))
                commands.append(Command("ud", (name,), json=(i + j) % 2 == 1))
    description = (
        f"{len(codes.specs)} codes of 16 to 1025 words, binary and ternary, "
        "prefix/suffix/composed/planted-collision; kraft and ud (human and --json) on each"
    )
    return codes, commands, description


def _power(words, k):
    return ["".join(t) for t in itertools.product(words, repeat=k)]


def _power_refine(rng: random.Random) -> tuple[_Codes, list[Command], str]:
    codes = _Codes()
    commands: list[Command] = []
    blocks = {}
    for length in (2, 3, 4):
        blocks[length] = codes.add(f"block{length}", "01", _power("01", length), True, "block")
    units = {r: codes.add(f"unit{r}", SYMBOLS[:r], list(SYMBOLS[:r]), True, "unit") for r in (2, 3)}
    # tree shapes are the same under every seed; the seed relabels them
    shape = random.Random("power-refine shapes")
    for n, alphabet, copy in itertools.product(range(3, 9), ("01", "012"), "ab"):
        r = len(alphabet)
        words = relabel(rng, alphabet, trimmed_prefix_code(shape, alphabet, n, balanced=True))
        name = codes.add(f"prefix{r}-{n}{copy}", alphabet, words, True, "prefix")
        commands += [
            Command("power", (name,), ("-k", "2")),
            Command("power", (name,), ("-k", "3")),
            Command("chain", (name,), ("-n", "1")),
            Command("chain", (name,), ("-n", "2")),
            Command("refines", (name, units[r]), holds=True),
        ]
        if n <= 5:
            commands.append(Command("power", (name,), ("-k", "4")))
        if r == 2:
            square = codes.add(f"{name}-sq", alphabet, _power(words, 2), True, "prefix-square")
            commands += [
                Command("refines", (square, name), holds=True),
                Command("refines", (name, square), holds=False),
                Command("hasse", (units[r], name, square)),
            ]
    b2, b3, b4, u2 = blocks[2], blocks[3], blocks[4], units[2]
    for k in (2, 3, 4, 5):
        commands.append(Command("power", (b2,), ("-k", str(k))))
    for block in (b3, b4):
        commands += [Command("power", (block,), ("-k", "2")), Command("power", (block,), ("-k", "3"))]
    for block in (b2, b3, b4):
        commands += [Command("chain", (block,), ("-n", "1")), Command("chain", (block,), ("-n", "2"))]
    commands += [
        Command("refines", (b4, b2), holds=True),
        Command("refines", (b4, u2), holds=True),
        Command("refines", (b3, u2), holds=True),
        Command("refines", (b2, b4), holds=False),
        Command("refines", (b3, b2), holds=False),
        Command("refines", (b2, b3), holds=False),
        Command("hasse", (b2, b3, b4, u2)),
        Command("hasse", (b4, b2, u2, "prefix2-3a", "prefix2-3a-sq")),
    ]
    description = (
        "block codes {0,1}^L (L = 2..4), prefix codes of 3 to 8 words and their squares; "
        "power -k 2..5, chain -n 1..2 (up to chain -n 2 on the 16-word block code), refines, hasse"
    )
    return codes, commands, description


def _verify_small(rng: random.Random) -> tuple[_Codes, list[Command], str]:
    codes = _Codes()
    # the two cliffs are fixed, so they cost the same under every seed
    codes.add("skewed4", "01", ["0", "10", "110", "111"], True, "kraft1")
    codes.add("block2", "01", ["00", "01", "10", "11"], True, "kraft1")
    codes.add("unit2", "01", ["0", "1"], True, "kraft1")
    codes.add("unit3", "012", ["0", "1", "2"], True, "kraft1")
    # three sets of small codes, so the latency quantiles rest on many inputs;
    # their shapes are the same under every seed, and the seed relabels them
    shape = random.Random("verify-small shapes")
    for copy in "abc":
        codes.add(f"kraft1-3{copy}", "01", relabel(rng, "01", ["0", "10", "11"]), True, "kraft1")
        for n in (2, 3, 4):
            for half in "xy":
                words = shape.sample(prefix_code(shape, "01", n + 1, balanced=False), n)
                codes.add(f"nonfull2-{n}{copy}{half}", "01", relabel(rng, "01", words), True, "nonfull-prefix")
            words = shape.sample(prefix_code(shape, "012", 5, balanced=False), n)
            codes.add(f"nonfull3-{n}{copy}", "012", relabel(rng, "012", words), True, "nonfull-prefix")
        codes.add(f"nonfull3-2{copy}z", "012", relabel(rng, "012", ["0", "1"]), True, "nonfull-prefix")
        for n, full in ((3, True), (3, False), (4, False)):
            words = shape.sample(prefix_code(shape, "01", n if full else n + 1, balanced=False), n)
            name = f"suffix2-{n}{copy}{'' if full else 'nonfull'}"
            codes.add(name, "01", [w[::-1] for w in relabel(rng, "01", words)], True, "suffix")
        for i, alphabet in enumerate(("01", "01", "01", "01", "012", "012")):
            while True:
                u = random_word(shape, alphabet, shape.randint(1, 2))
                v = random_word(shape, alphabet, shape.randint(1, 2))
                if u != v:
                    break
            u, v = permuted(rng, alphabet, [u, v])
            codes.add(f"ambiguous{len(alphabet)}-{i}{copy}", alphabet, [u, v, u + v], False, "collision", (u, v))
        for i in range(2):
            base = relabel(rng, "01", prefix_code(shape, "01", 3, balanced=False))
            u, v = base[shape.randrange(3)], base[shape.randrange(3)]
            codes.add(f"ambiguous2-4w{i}{copy}", "01", [*base, u + v], False, "collision", (u, v))
        for length, alphabet in ((4, "01"), (6, "01"), (8, "01"), (10, "01"), (4, "012"), (6, "012")):
            word = permuted(rng, alphabet, [random_word(shape, alphabet, length)])
            codes.add(f"single{len(alphabet)}-{length}{copy}", alphabet, word, True, "single")
    commands = []
    for name in codes.specs:
        commands += [
            Command("verify", (name,)),
            Command("irredundant", (name,)),
            Command("irredundant", (name,), ("--ud-only",)),
        ]
    description = (
        f"{len(codes.specs)} codes of 1 to 4 words (incl. {{0,10,110,111}} and {{00,01,10,11}}); "
        "verify, irredundant, irredundant --ud-only on each"
    )
    return codes, commands, description


_GENERATORS = {"ud-sweep": _ud_sweep, "power-refine": _power_refine, "verify-small": _verify_small}


def build(workload: str, seed: int) -> Corpus:
    """The corpus and one round of commands for ``workload``; same seed, same corpus."""
    rng = random.Random(f"{workload}:{seed}")
    codes, commands, description = _GENERATORS[workload](rng)
    rng.shuffle(commands)
    return Corpus(workload, codes.specs, tuple(commands), description)
