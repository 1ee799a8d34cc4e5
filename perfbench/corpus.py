"""Seeded corpus of space documents for the classify-docs workload.

The corpus is a fixed list of slots.  Each slot names a document kind
(valid, or one of three invalid ``opens`` families), a carrier size, a
density and a document shape.  A document is drawn for a slot from one of
``VARIANTS`` sub-seeds, and the run seed picks the variant of every slot and
the order in which the slots are classified.  Keeping the set of possible
documents finite is what lets ``reference/classify.json`` hold the seed
commit's output for every document a run can meet.

Why this mix:

* sizes 8 to 12 span the range where the subset tables (2^n) go from cheap
  to dominant; 12 is the document cap;
* densities run from discrete (2^n opens) through three bands of the open
  count to chains (n + 1 opens), because validation is O(|F|^2) in the open
  count while the axiom routes are driven by 2^n and the class structure;
* every valid slot comes in both shapes, so the ``opens`` route (validation)
  and the ``leq`` route (closure plus Alexandrov) are measured on the same
  spaces; the 12-point discrete ``opens`` document (4,096 opens) is always in;
* a quarter of the documents are invalid ``opens`` families: one open set
  removed so the family is not closed under union, or under intersection,
  or the empty set dropped.  They exit 3, so a validator that accepts faster
  but rejects slower or wrongly shows in latency or in the error count;
* random preorders carry some non-trivial classes (non-T0 spaces), and a
  third of the documents carry labels, so the class and label paths run.

Run ``python3 perfbench/corpus.py --seed 1`` to print the corpus summary.
"""

from __future__ import annotations

import argparse
import json
import random

VARIANTS = 5

SIZES = (8, 9, 10, 11, 12)
# open-count bands as exponents of 2: |F| lies in [2^(lo*n), 2^(hi*n)]
BANDS = {"sparse": (0.75, 0.85), "medium": (0.55, 0.65), "dense": (0.40, 0.50)}
DENSITIES = ("discrete", "sparse", "medium", "dense", "chain")
SHAPES = ("opens", "leq")
INVALID = ("union", "intersection", "missing-empty")


def slots() -> list[tuple[str, int, str, str]]:
    """(kind, points, density, shape) of every corpus slot, in a fixed order."""
    out = []
    for n in SIZES:
        for density in DENSITIES:
            for shape in SHAPES:
                out.append(("valid", n, density, shape))
        for density in ("sparse", "medium", "dense", "chain"):
            for shape in SHAPES:
                out.append(("valid", n, density, shape))
    for kind in INVALID:
        for n in SIZES:
            for density in ("medium", "sparse"):
                out.append((kind, n, density, "opens"))
    return out


# ---------------------------------------------------------------------------
# preorders as up-rows (bit y of up[x] set iff x <= y), built independently
# of the package under test

def _closure(n: int, pairs: list[tuple[int, int]]) -> list[int]:
    up = [1 << x for x in range(n)]
    for x, y in pairs:
        up[x] |= 1 << y
    changed = True
    while changed:
        changed = False
        for x in range(n):
            row = up[x]
            for y in range(n):
                if row >> y & 1:
                    row |= up[y]
            if row != up[x]:
                up[x] = row
                changed = True
    return up


def _down_rows(up: list[int]) -> list[int]:
    n = len(up)
    return [sum(1 << x for x in range(n) if up[x] >> y & 1) for y in range(n)]


def _upsets(up: list[int]) -> list[int]:
    """Every upset of the preorder (the open sets), ascending."""
    n = len(up)
    down = _down_rows(up)
    out = []

    def rec(avail: int, chosen: int) -> None:
        if not avail:
            out.append(chosen)
            return
        x = (avail & -avail).bit_length() - 1
        rec(avail & ~down[x], chosen)
        rec(avail & ~up[x], chosen | up[x])

    rec((1 << n) - 1, 0)
    return sorted(out)


def _count_upsets(up: list[int]) -> int:
    n = len(up)
    down = _down_rows(up)
    memo: dict[int, int] = {0: 1}

    def rec(avail: int) -> int:
        got = memo.get(avail)
        if got is None:
            x = (avail & -avail).bit_length() - 1
            got = rec(avail & ~down[x]) + rec(avail & ~up[x])
            memo[avail] = got
        return got

    return rec((1 << n) - 1)


def _random_pairs(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    """A generating relation: a few merged classes plus a random DAG on them."""
    points = list(range(n))
    rng.shuffle(points)
    k = n - rng.randint(0, 2)
    classes: list[list[int]] = [[x] for x in points[:k]]
    for x in points[k:]:
        rng.choice(classes).append(x)
    pairs = []
    for members in classes:
        for a, b in zip(members, members[1:] + members[:1]):
            if a != b:
                pairs.append((a, b))
    for i in range(k):
        for j in range(i + 1, k):
            if rng.random() < p:
                pairs.append((rng.choice(classes[i]), rng.choice(classes[j])))
    return pairs


def _banded_pairs(rng: random.Random, n: int, density: str) -> list[tuple[int, int]]:
    if density == "discrete":
        return []
    if density == "chain":
        order = list(range(n))
        rng.shuffle(order)
        return list(zip(order, order[1:]))
    lo, hi = (2 ** (e * n) for e in BANDS[density])
    p = {"sparse": 0.04, "medium": 0.12, "dense": 0.3}[density]
    for _ in range(10_000):
        pairs = _random_pairs(rng, n, p)
        size = _count_upsets(_closure(n, pairs))
        if lo <= size <= hi:
            return pairs
        p = min(0.95, p * 1.15) if size > hi else max(0.001, p / 1.15)
    raise RuntimeError(f"no {density} preorder on {n} points")


def _meta_opens(opens: list[int], n: int) -> list[list[int]]:
    return [[x for x in range(n) if u >> x & 1] for u in opens]


def _space(slot: int) -> tuple[list[tuple[int, int]], int | None]:
    """The slot's space as generating pairs, plus the open set an invalid
    family drops (None for valid slots).  Fixed per slot, so every variant of
    a slot is the same space up to relabeling and costs about the same."""
    kind, n, density, _shape = slots()[slot]
    rng = random.Random(f"finitetop-corpus:{slot}")
    pairs = _banded_pairs(rng, n, density)
    if kind == "valid":
        return pairs, None
    up = _closure(n, pairs)
    opens = _upsets(up)
    full = (1 << n) - 1
    ups = set(up)
    coups = {full & ~d for d in _down_rows(up)}
    if kind == "missing-empty":
        return pairs, 0
    if kind == "union":
        # join-reducible but meet-irreducible: only unions break
        return pairs, rng.choice([u for u in opens if u not in (0, full) and u in coups and u not in ups])
    # join-irreducible but meet-reducible: only intersections break
    return pairs, rng.choice([u for u in opens if u not in (0, full) and u in ups and u not in coups])


def _relabel(bits: int, perm: list[int]) -> int:
    return sum(1 << perm[x] for x in range(len(perm)) if bits >> x & 1)


def make_document(slot: int, variant: int) -> tuple[dict, dict]:
    """The document for one slot and variant, plus what the generator intended.

    The variant draws a relabeling of the slot's points, the order in which
    opens or pairs are listed, and whether labels are attached.
    """
    kind, n, density, shape = slots()[slot]
    pairs, removed = _space(slot)
    rng = random.Random(f"finitetop-corpus:{slot}:{variant}")
    perm = list(range(n))
    rng.shuffle(perm)
    pairs = [(perm[x], perm[y]) for x, y in pairs]
    if shape == "leq":
        rng.shuffle(pairs)
        doc: dict = {"points": n, "leq": [list(p) for p in pairs], "closure": "reflexive-transitive"}
    else:
        opens = _upsets(_closure(n, pairs))
        if removed is not None:
            opens.remove(_relabel(removed, perm))
        rng.shuffle(opens)
        doc = {"points": n, "opens": _meta_opens(opens, n)}
    if kind == "valid" and rng.random() < 1 / 3:
        doc["labels"] = [f"p{x}" for x in rng.sample(range(100), n)]
    meta = {"slot": slot, "variant": variant, "kind": kind, "points": n,
            "density": density, "shape": shape}
    return doc, meta


def corpus(seed: int) -> list[tuple[str, dict, dict]]:
    """The run corpus for a seed: (key, document, meta) in classification order."""
    rng = random.Random(f"finitetop-corpus-run:{seed}")
    chosen = [(slot, rng.randrange(VARIANTS)) for slot in range(len(slots()))]
    rng.shuffle(chosen)
    out = []
    for slot, variant in chosen:
        doc, meta = make_document(slot, variant)
        out.append((f"{slot}:{variant}", doc, meta))
    return out


def encode(doc: dict) -> bytes:
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    mix: dict[tuple, int] = {}
    for _key, doc, meta in corpus(args.seed):
        tag = (meta["kind"], meta["shape"], meta["density"])
        mix[tag] = mix.get(tag, 0) + 1
        size = f"opens={len(doc['opens'])}" if "opens" in doc else f"leq={len(doc['leq'])}"
        print(f"{meta['slot']:4d}:{meta['variant']} {meta['kind']:13s} n={meta['points']:2d} "
              f"{meta['density']:8s} {meta['shape']:5s} {size}")
    for tag, count in sorted(mix.items()):
        print(" ".join(tag), count)


if __name__ == "__main__":
    main()
